"""Local antimagic labelings: matrices, graph families, verifier, search oracle."""

__version__ = "0.1.0"
