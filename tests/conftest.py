import warnings

import pytest

from qproj import build_boolean_geometry, build_projective_space

# Once a Hypothesis test fails, the Hypothesis pytest plugin imports its
# patch writer, which imports libcst, and that import raises a
# DeprecationWarning (mypy_extensions.TypedDict).  Under -W error the
# warning becomes an INTERNALERROR that ends the run and hides every
# later result.  Importing the patch writer here, with that warning
# ignored, leaves the plugin a module already loaded.  libcst is
# optional: where it is missing, the plugin skips the patch.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# the corpus every geometry-level check runs against
PROJECTIVE_PARAMS = [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)]
BOOLEAN_SIZES = [1, 2, 3, 4, 5, 6]


@pytest.fixture(scope="session")
def geometry_corpus():
    geoms = {}
    for q, n in PROJECTIVE_PARAMS:
        geoms[f"P{n}(F{q})"] = build_projective_space(q, n)
    for n in BOOLEAN_SIZES:
        geoms[f"Boolean({n})"] = build_boolean_geometry(n)
    return geoms


@pytest.fixture(scope="session")
def fano(geometry_corpus):
    return geometry_corpus["P2(F2)"]
