"""Combinatorial invariants of cyclic-Schottky strata of Schottky space.

Submodules:

* :mod:`.strata` - admissible tuples, stratum counts, component bounds;
  also the check record ``check`` and ``within_budget``/``BudgetExceeded``
  (with ``within_budget_of_powers``)
* :mod:`.homorbits` - brute-force orbit oracles over generator images
* :mod:`.freegroup` - reduced words, foldings, Schreier generators
* :mod:`.cyclic_schottky` - structural group model and kernel machinery
* :mod:`.surfaces` - rotation tuples and the fiber-product curve family
* :mod:`.moebius` - Moebius numerics and concrete matrix groups
* :mod:`.cli` - the ``schottky-strata`` command line front end
"""

__version__ = "0.1.0"
