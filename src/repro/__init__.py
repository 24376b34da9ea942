"""repro — reproduction of "Realistic Re-evaluation of Knowledge Graph
Completion Methods: An Experimental Study" (SIGMOD 2020).

The package is organised by subsystem:

* :mod:`repro.kg` — knowledge-graph substrate and synthetic benchmark
  generators (FB15k-like, WN18-like, YAGO3-10-like, Freebase snapshot).
* :mod:`repro.autodiff` — numpy reverse-mode autodiff used to train models.
* :mod:`repro.models` — the ten embedding models of the paper plus trainer.
* :mod:`repro.rules` — AMIE-style rule mining and rule-based prediction.
* :mod:`repro.core` — the paper's contribution: redundancy, leakage and
  Cartesian-product analysis, de-redundancy transforms, simple baselines.
* :mod:`repro.eval` — the link-prediction protocol, raw and filtered metrics.
* :mod:`repro.experiments` — one driver per table/figure of the paper.
"""

__version__ = "0.5.0"

from . import kg  # noqa: F401  (re-export of the most commonly used subsystem)

__all__ = ["kg", "__version__"]
