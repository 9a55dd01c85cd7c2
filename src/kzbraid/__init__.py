"""Degree-truncated Kontsevich integrals of braids and their closures.

The package re-exports nothing: each name is imported from the module that
defines it (`from kzbraid.relations import reduce`).  Importing `kzbraid`
runs no module; `kzbraid.cli` registers the others without running them.
"""

__version__ = "0.1.0"
