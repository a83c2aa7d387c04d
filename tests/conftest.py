from statistics import NormalDist

import pytest

from wskg import SystemParams

#: Family-wise false-rejection level of each statistical test of the
#: samplers and the randomized observations; a test with k checks runs each
#: at level / k (Bonferroni).
SAMPLER_FAMILY_LEVEL = 0.001


def _two_sided_z(checks: int) -> float:
    """z of a two-sided normal check at ``SAMPLER_FAMILY_LEVEL / checks``."""
    return NormalDist().inv_cdf(1.0 - SAMPLER_FAMILY_LEVEL / checks / 2)


#: A script prologue, for a fresh interpreter, after which every import of
#: numpy fails as if it were not installed. ``BLOCKED`` lists each import
#: that asked for numpy, also one whose ImportError the code caught.
BLOCK_NUMPY = """
import sys

BLOCKED = []

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            BLOCKED.append(name)
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockNumpy())
"""


def params_with(p_max, gamma=4.0, p_th=2.0, sigma2=1.0, sigmaj2=1.0, n=10):
    return SystemParams(n, p_max, gamma, p_th, sigma2, sigmaj2)


@pytest.fixture
def ref_params():
    """Ten subcarriers, pilot budget 5, jam budget 4, threshold 2, unit variances."""
    return SystemParams(
        n_subcarriers=10,
        max_pilot_power=5.0,
        jam_power_budget=4.0,
        sense_threshold=2.0,
        legit_channel_var=1.0,
        jam_channel_var=1.0,
    )
