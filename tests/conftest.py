import numpy as np
import pytest
from hypothesis import settings

from mdemap import AreaOfInterest, MovementVector
from mdemap.mesh import inverse_project, LocalCoord

# Per-example deadlines fail at random on a loaded machine; every property
# test runs without one.
settings.register_profile("mdemap", deadline=None)
settings.load_profile("mdemap")


@pytest.fixture
def small_aoi():
    # ~4.5 km x ~3.3 km, enough for a few meshes at every standard scale
    return AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)


def make_vectors(rng, n, aoi, t_lo=0.0, t_hi=1000.0):
    """Random movement vectors with origins uniform over the AOI."""
    xs = rng.uniform(0.0, aoi.width_m, n)
    ys = rng.uniform(0.0, aoi.height_m, n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    ts = rng.uniform(t_lo, t_hi, n)
    out = []
    for i in range(n):
        origin = inverse_project(LocalCoord(xs[i], ys[i]), aoi)
        out.append(MovementVector(f"u{i % 17}", float(ts[i]), origin,
                                  float(thetas[i]), 25.0, 60.0))
    return out
