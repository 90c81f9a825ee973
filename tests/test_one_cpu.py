"""Every stage runs as plain tasks, so a query finishes in a Ray session
with a single CPU. A stage that held its own worker pool kept every CPU
and starved the read tasks that feed it: ``q_ann_pq`` (two top-k
scorers) and ``q_lang_id`` hung at ``num_cpus=1``."""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pandas as pd

from tests.test_entry_contract import SF_DIR, _normalize, _to_pandas

REPO = Path(__file__).resolve().parents[1]
NAMES = ("q_ann_pq", "q_lang_id")

_SCRIPT = """
import pickle, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})
from pystreamfs_ray.pipelines import queries as q
out = {{}}
for name in {names!r}:
    res = getattr(q, name)({sf!r})
    out[name] = res.to_pandas() if hasattr(res, "to_pandas") else res
with open({path!r}, "wb") as f:
    pickle.dump(out, f)
ray.shutdown()
"""


def test_queries_finish_with_one_cpu(ray_session, tmp_path):
    from pystreamfs_ray.pipelines import queries as q

    path = tmp_path / "one_cpu.pkl"
    script = _SCRIPT.format(repo=str(REPO), names=NAMES, sf=SF_DIR,
                            path=str(path))
    # own process group: a hung run's Ray processes die with it
    proc = subprocess.Popen([sys.executable, "-c", script],
                            start_new_session=True)
    try:
        assert proc.wait(timeout=300) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    with open(path, "rb") as f:
        got = pickle.load(f)
    for name in NAMES:
        want = _to_pandas(getattr(q, name)(SF_DIR))
        pd.testing.assert_frame_equal(_normalize(got[name]), _normalize(want))
