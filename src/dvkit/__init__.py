"""dvkit: bivariate polynomials against the bidisk.

Zero-set classification, sums-of-squares certificates, determinantal
representations of distinguished varieties, and bounded analytic extension
with explicit constants.
"""

__version__ = "0.1.0"
