"""Dataset generators and loaders.

The paper evaluates on T-Drive (real Beijing taxi traces) and two synthetic
datasets produced by Brinkhoff's network-based moving-object generator
(Oldenburg, SanJoaquin).  This environment has no network access, so the
substitutions documented in DESIGN.md apply:

* :mod:`repro.datasets.tdrive` — a taxi-fleet simulator over the Beijing
  5th-ring extent with hotspot-biased origin/destination flows, calibrated
  to Table I's scale statistics;
* :mod:`repro.datasets.brinkhoff` — a from-scratch re-implementation of the
  network-based moving-objects mechanic (road graph + shortest-path
  movement + per-timestamp arrivals + random quits) with the Oldenburg and
  SanJoaquin population dynamics;
* :mod:`repro.datasets.synthetic` — small analytic generators for tests.

All generators return a :class:`repro.stream.stream.StreamDataset` and take
a ``scale`` factor so laptop-scale runs and paper-scale runs share one code
path.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TDriveConfig": "tdrive",
    "make_tdrive": "tdrive",
    "BrinkhoffConfig": "brinkhoff",
    "NetworkGenerator": "brinkhoff",
    "make_oldenburg": "brinkhoff",
    "make_sanjoaquin": "brinkhoff",
    "make_random_walks": "synthetic",
    "make_two_hotspot_stream": "synthetic",
    "make_lane_stream": "synthetic",
    "save_stream_dataset": "io",
    "load_stream_dataset": "io",
    "RawFix": "preprocess",
    "load_fixes_csv": "preprocess",
    "preprocess_raw_traces": "preprocess",
    "available_datasets": "registry",
    "load_dataset": "registry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
