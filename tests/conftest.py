import pytest

import catafind.expr as ex
from catafind.determinants import DeterminantSet
from catafind.scenarios import make_reaction_diffusion


@pytest.fixture(scope="session")
def rd_field():
    return make_reaction_diffusion()


@pytest.fixture(scope="session")
def rd_dets(rd_field):
    return DeterminantSet(rd_field)


# three cubic states and six parameters, every monomial up to degree 3
# present: many seeds end far from any root
DENSE_FIELD = """\
vars: x y z
params: a1 a2 a3 a4 a5 a6
eq: a1 + a4*y + x + 0.3*y^2 - 0.7*x*z + x^3 - 0.2*y*z^2
eq: a2 + a5*z + 1.1*y - 0.4*x^2 + 0.5*y*z + y^3 + 0.6*x*y*z
eq: a3 + a6*x - 0.9*z + 0.8*x*y - 0.3*z^2 + z^3 - 0.5*x^2*y
"""


@pytest.fixture
def dense_field():
    return ex.parse_vector_field(DENSE_FIELD)


SEC6_TEMPLATE = """\
vars: x y
params: a1 a2
eq: x + y^2
eq: x^2 + a1*x + a2 + y^2 + {k}*x
"""


@pytest.fixture(scope="session")
def corank_zero_field():
    """The 2-D family whose subrank collapses at k=0."""
    return ex.parse_vector_field(SEC6_TEMPLATE.format(k=0), name="corank0")


@pytest.fixture(scope="session")
def corank_ok_field():
    """Same family at k=0.5, where the corank-1 assumption holds."""
    return ex.parse_vector_field(SEC6_TEMPLATE.format(k=0.5), name="corank_ok")
