"""pystreamfs_ray — a Ray-Data-native streaming feature-engineering and
online feature-selection engine.

Re-expresses the capabilities of haugjo/pystreamfs (reference at
/root/reference, v0.0.6) as partition-parallel windowed computation over
Parquet tables of multi-turn conversation transcripts:

- sessionize / time-order per entity (``conv_id``)
- tumbling & sliding count windows, lag/lead, backfill
- five online feature-selection kernels (OFS, FSDS, MCNN, CancelOut, EFS)
  run as per-entity sequential folds inside parallel group tasks
  (state threaded window-to-window, exactly like the reference's
  ``simulate_stream`` loop — see ``/root/reference/pystreamfs/pystreamfs.py:59-90``)
- as-of (point-in-time) join of window features onto label timestamps
  with zero temporal leakage
- prequential evaluation + stability metrics (fscr, accuracy-over-time)
- per-partition checkpoint / resume with lineage
- large-scale data-pipeline extras: dedup (exact / MinHash-LSH / SimHash /
  embedding), ANN similarity search, text analysis, multimodal stubs.

Nothing in this package calls ``ray.init``; the caller owns the session.
"""

__version__ = "0.1.0"

from pystreamfs_ray.schema import FEATURE_COLS, TRANSCRIPT_COLUMNS  # noqa: F401

# the reference's three-call API (pystreamfs.prepare_data /
# simulate_stream / plot_stats) at the same import depth, so a
# reference user's `from pystreamfs import prepare_data, ...` ports as
# `from pystreamfs_ray import prepare_data, ...`
from pystreamfs_ray.api import (  # noqa: F401
    available_kernels,
    plot_data,
    prepare_data,
    register_kernel,
    simulate_stream,
)
