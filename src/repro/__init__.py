"""repro — reproduction of Beynon et al., *Efficient Manipulation of Large
Datasets on Heterogeneous Storage Systems* (IPPS 2002).

The package provides:

- :mod:`repro.sim` — a deterministic discrete-event cluster substrate
  (processor-sharing CPUs, disks, max-min-fair networks, UMD testbed model);
- :mod:`repro.core` — the DataCutter-style filter/stream framework with
  transparent copies and the RR / WRR / DD writer policies;
- :mod:`repro.engines` — execution engines: a simulated engine for
  scheduling studies and a threaded engine for real local runs;
- :mod:`repro.viz` — the isosurface-rendering application (marching cubes,
  z-buffer and active-pixel rasterisation, merge);
- :mod:`repro.data` — synthetic ParSSim-like datasets, Hilbert-curve
  declustering, and storage placement;
- :mod:`repro.adr` — the Active Data Repository baseline;
- :mod:`repro.experiments` — generators for every table and figure in the
  paper's evaluation section, plus extension experiments;
- :mod:`repro.cli` — the ``repro`` command-line interface.
"""

from repro._version import __version__

__all__ = ["__version__"]
