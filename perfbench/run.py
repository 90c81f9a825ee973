"""Single-core benchmark of the transcripts -> selector -> as-of pipeline.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 15 --trace 0

Runs from the repository root or any other directory. One run:

1. sets up ``SETUP_REPS`` times (``ray.init`` with one CPU, fixture
   generation from ``--seed``, a warm-up job) and reports the median as
   ``setup_s``;
2. runs the workload's job back to back while the next job is expected
   to fit in ``--seconds`` of timed work, and checks every job's output
   outside its timed region (``checks.py``);
3. prints, as the last line of standard output, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of the
   traced pass (``workloads.traced_pass``) with ``--trace 1``.

The line before it, ``report: {...}``, holds the run's details: CPU
count, every job's wall time, the error rate and the share of CPU time
the hypervisor took while the jobs ran.

All files, Ray's session directory included, go under ``.perfbench_work``
in the repository root and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(REPO_ROOT, ".perfbench_work")
SETUP_REPS = 3
# Ray gets one CPU whatever the host offers: tasks run one at a time, so
# the figures measure the program rather than the scheduler or the
# other tenants of a shared host.
NUM_CPUS = 1
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
_RAY_SOCKET_SUFFIX = 72

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "turns_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "resume_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="share of the workload's turns (smoke tests)")
    return p.parse_args(argv)


def _prepare_environment():
    """Pin BLAS/OpenMP pools to one thread, turn progress bars off and
    make the package importable, here and in every Ray worker (workers
    inherit this environment). Runs before numpy or Ray is imported."""
    if not os.path.isdir(os.path.join(REPO_ROOT, "pystreamfs_ray")):
        raise SystemExit(f"perfbench: no pystreamfs_ray package in {REPO_ROOT}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, REPO_ROOT)
    sys.path.insert(0, BENCH_DIR)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = REPO_ROOT + (os.pathsep + old if old else "")


# --- processes ----------------------------------------------------------

def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                out[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            pass
    return out


def _descendants() -> list[int]:
    parents = _ppid_map()
    found, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        kids = [c for c, p in parents.items() if p == pid]
        found += kids
        todo += kids
    return found


def _status(pid: int, field: str) -> str | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def peak_rss_mb() -> float:
    """Sum of peak RSS (VmHWM) over this driver and its Ray workers."""
    pids = [os.getpid()] + [p for p in _descendants()
                            if _cmdline(p).startswith("ray::")]
    kb = 0
    for pid in pids:
        hwm = _status(pid, "VmHWM")
        if hwm:
            kb += int(hwm.split()[0])
    return kb / 1024.0


def _cpu_jiffies() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ... in clock ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _alive(pid: int) -> bool:
    state = _status(pid, "State")
    if state is None:
        return False
    if state.startswith("Z"):  # reap it if it is our own child
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return _status(pid, "State") is not None
    return True


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    started = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        left = [p for p in started if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.05)


# --- session ------------------------------------------------------------

def _ray_temp_dir() -> str:
    """Ray's temp dir under the work root, unless the checkout's path is
    too long for Ray's socket paths; then a short private temp dir."""
    short = os.path.join(WORK_ROOT, "r")
    if len(short.encode()) + _RAY_SOCKET_SUFFIX <= 107:
        return short
    import tempfile

    return tempfile.mkdtemp(prefix="pfb")


def _remove_ray_sessions(temp_dir: str) -> None:
    """Remove this process's Ray session directories (Ray names them
    ``session_<date>_<time>_<usec>_<pid>``), and the temp dir itself
    once no other run's session is left in it."""
    if not os.path.isdir(temp_dir):
        return
    suffix = f"_{os.getpid()}"
    for name in os.listdir(temp_dir):
        if name.startswith("session_") and name.endswith(suffix):
            shutil.rmtree(os.path.join(temp_dir, name), ignore_errors=True)
    if not any(n.startswith("session_") and n != "session_latest"
               for n in os.listdir(temp_dir)):
        shutil.rmtree(temp_dir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # not empty: another run is using it
        pass


def start_ray(num_cpus: int, temp_dir: str) -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def setup(wl, seed: int, num_cpus: int, work: str, ray_tmp: str):
    """``SETUP_REPS`` times: ray.init, fixture generation, warm-up.
    Every repetition but the last stops Ray again. Returns the fixture
    and the per-repetition phase times."""
    from workloads import WARMUP_SHARE, make_fixture, run_job

    phases = {"setup.ray_init_s": [], "setup.fixture_s": [],
              "setup.warmup_s": [], "setup_s": []}
    warm = wl.scaled(WARMUP_SHARE)
    fx = None
    for rep in range(SETUP_REPS):
        if rep:
            stop_ray()
        t0 = time.perf_counter()
        start_ray(num_cpus, ray_tmp)
        t1 = time.perf_counter()
        fx = make_fixture(wl, seed, os.path.join(work, "fixture"))
        warm_fx = make_fixture(warm, seed, os.path.join(work, "warmup"))
        t2 = time.perf_counter()
        run_job(warm, warm_fx)
        t3 = time.perf_counter()
        phases["setup.ray_init_s"].append(t1 - t0)
        phases["setup.fixture_s"].append(t2 - t1)
        phases["setup.warmup_s"].append(t3 - t2)
        phases["setup_s"].append(t3 - t0)
    return fx, phases


def measure(wl, fx, seconds: float, trace: bool):
    """Jobs back to back while the next one is expected to end within
    ``seconds`` of timed work (at least one job); every job's output is
    checked after its timed region."""
    from checks import Checker
    from workloads import run_job, traced_pass

    checker = Checker(wl, fx)
    jobs, layers, check_s = [], [], []
    attempted = failed = 0
    spent = 0.0
    hard_stop = time.monotonic() + max(3 * seconds, seconds + 60)
    while attempted == 0 or (spent + spent / attempted <= seconds
                             and time.monotonic() < hard_stop):
        attempted += 1
        t0 = time.perf_counter()
        try:
            if trace:
                m, job = traced_pass(wl, fx)
            else:
                job = run_job(wl, fx)
            spent += job.wall_s
            t1 = time.perf_counter()
            checker.check(job)
            check_s.append(time.perf_counter() - t1)
        except Exception:  # a failed job is counted and the loop goes on
            failed += 1
            spent += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            continue
        jobs.append(job)
        if trace:
            layers.append(m)
    return jobs, layers, attempted, failed, check_s


def main(argv=None) -> int:
    args = _parse_args(argv)
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload].scaled(args.scale)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    ray_tmp = _ray_temp_dir()
    try:
        fx, phases = setup(wl, args.seed, NUM_CPUS, work, ray_tmp)
        before = _cpu_jiffies()
        jobs, layers, attempted, failed, check_s = measure(
            wl, fx, args.seconds, bool(args.trace))
        spent = [b - a for a, b in zip(before, _cpu_jiffies())][:8]
        rss = peak_rss_mb()
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        _remove_ray_sessions(ray_tmp)
    if not jobs:
        print(f"perfbench: all {attempted} jobs failed", file=sys.stderr)
        return 1

    walls = [j.wall_s for j in jobs]
    turns = fx.transcripts.num_rows
    report = {
        "workload": wl.name, "seed": args.seed, "num_cpus": NUM_CPUS,
        "cpus_available": len(os.sched_getaffinity(0)),
        "turns": turns, "trace": args.trace, "attempted": attempted,
        "failed": failed, "error_rate": failed / attempted,
        "job_walls_s": walls, "check_s": check_s, **phases,
        # share of the host's CPU time a hypervisor took from this machine
        # while the jobs ran: high values mark runs on a contended host
        "host_steal_share": spent[7] / max(1, sum(spent)),
    }
    if args.trace:
        values = {name: statistics.median([m[name] for m in layers])
                  for name in layers[0]}
        values.update({k: statistics.median(v) for k, v in phases.items()
                       if k.startswith("setup.")})
        from workloads import LAYER_METRICS
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
    else:
        values = {
            "turns_per_s": statistics.median([turns / w for w in walls]),
            "wall_s": statistics.median(walls),
            "resume_s": statistics.median([j.resume_s for j in jobs]),
            "setup_s": statistics.median(phases["setup_s"]),
            "peak_rss_mb": rss,
            "success_rate": (attempted - failed) / attempted,
        }
        units = {k: u for k, (u, _) in END_TO_END.items()}
    print("report: " + json.dumps(report))
    for name, v in values.items():
        print(f"  {name:34s} {v:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
