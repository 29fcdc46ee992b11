"""Exact-arithmetic tools for n-homogeneous duals of path-algebra quotients,
the associated linear n-complexes, their contractions to 2-complexes, and
Koszulity-type checkers, all over a prime field."""

__version__ = "0.1.0"

# The property suites of `verify.SUITES`, held here so that the command line
# can offer them without loading the suites.
SUITE_NAMES = ("dual_agreement", "functor_oracle", "torsion_classes",
               "torsion_transport", "contraction", "equivalence",
               "even_presentation", "dual_equivalence", "koszulity",
               "dimensions")
