import time

import pytest

from heckebound.datasets import CURVE_11A1, ec_ap, sato_tate_sample, tau_ap

ST_SEED = 17
ST_N = 100_000
DESK_X = 10_000

_timings = {}


@pytest.fixture(scope="session", autouse=True)
def dataset_cache(tmp_path_factory):
    """Keeps the reader's column cache in a directory of this session, not the user's home; CLI
    processes that tests start inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def ec_11a1():
    start = time.perf_counter()
    data = ec_ap(*CURVE_11A1, DESK_X)
    _timings["ec"] = time.perf_counter() - start
    return data


@pytest.fixture(scope="session")
def ec_elapsed(ec_11a1):
    return _timings["ec"]


@pytest.fixture(scope="session")
def tau_10k():
    return tau_ap(DESK_X)


@pytest.fixture(scope="session")
def st_100k():
    return sato_tate_sample(ST_N, ST_SEED)
