"""Exact abundancy-index arithmetic and friend-of-10 candidate filtering.

The library splits into arbitrary-precision integer arithmetic (`arith`),
index algebra and friend detection (`abundancy`), the structured-candidate
filter chain (`friend10`), the sigma sieve (`sieve`), segmented resumable
scanning (`scan`), and exhaustive verification suites (`verify`). The
`friendly` command exposes all of it.

Import each name from the module that defines it; the package itself
exports only ``__version__``. `arith`, `abundancy` and `friend10` form the
exact layer and never load numpy.
"""

__version__ = "0.1.0"
