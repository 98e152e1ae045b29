"""torusflow: closures of variety images in torus quotients.

Computes, exactly where possible and numerically otherwise, the limit set
("flow set") of a variety projected into R^n/Lambda or C^n/Lambda for a
discrete subgroup Lambda, as a finite union of pieces pi(C) + T with T a
compact torus, and verifies predictions by deterministic far-point sampling.
"""

__version__ = "0.1.0"
