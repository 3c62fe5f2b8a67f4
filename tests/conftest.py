"""Hypothesis settings profiles.

``mutants`` is what ``tests/mutants.py`` runs under: every phase but
shrinking, so a mutant's first failing example fails its test at once.
Example counts and everything else keep their defaults.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
