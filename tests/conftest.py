import numpy as np
import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (required by the driver
    contract: tests never init per-test)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def credit_data():
    """The reference's de facto fixture: datasets/credit.csv, target col 0."""
    data = np.genfromtxt(
        "/root/reference/datasets/credit.csv", delimiter=",", skip_header=1
    )
    Y = data[:, 0]
    X = np.delete(data, 0, 1)
    return X, Y


@pytest.fixture(scope="session")
def synth_dirs(tmp_path_factory):
    """Small deterministic transcript + label fixture (FIXTURES.md F1/F3)."""
    from pystreamfs_ray.synth import build_fixture

    root = tmp_path_factory.mktemp("synth")
    return build_fixture(str(root), n_convs=20, seed=7, mega_convs=2, n_files=4)


@pytest.fixture
def broadcast_paths(monkeypatch):
    """Run a block on both sides of the one broadcast-or-join gate
    (``stages/joins.fits_broadcast``): ``for path in broadcast_paths():
    ...`` yields "broadcast", then "shuffle", with
    ``joins.BROADCAST_MAX_BYTES`` patched to force each;
    ``broadcast_paths("shuffle")`` runs only the named path. A side with
    no rows is broadcast either way. After each leg the fixture asserts
    that the block ran the gate and that every gate over a side with
    rows took the named path, so a site that bypasses the gate fails."""
    from pystreamfs_ray.stages import joins

    gate = joins.fits_broadcast

    def paths(*only):
        for name, limit in (("broadcast", 1 << 62), ("shuffle", -1)):
            if only and name not in only:
                continue
            taken = []

            def spy(nbytes, nrows):
                fits = gate(nbytes, nrows)
                taken.append((fits, nrows))
                return fits

            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", limit)
            monkeypatch.setattr(joins, "fits_broadcast", spy)
            yield name
            assert taken, f"the {name} leg ran no broadcast gate"
            wrong = [t for t in taken if t[1] and t[0] != (name == "broadcast")]
            assert not wrong, f"gates off the {name} path: {wrong}"

    return paths
