import pytest

from hyperreguli import spread as spread_mod
from hyperreguli.gf import make_field
from hyperreguli.pg5 import plane_from_points
from hyperreguli.spread import build_spread, graph_plane


@pytest.fixture(scope="session")
def ctx2():
    return make_field(2)


@pytest.fixture(scope="session")
def ctx3():
    return make_field(3)


@pytest.fixture(scope="session")
def ctx4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def ctx5():
    return make_field(5)


@pytest.fixture(scope="session")
def ctx_by_q(ctx2, ctx3, ctx4, ctx5):
    return {2: ctx2, 3: ctx3, 4: ctx4, 5: ctx5}


@pytest.fixture(scope="session")
def spread2(ctx2):
    return build_spread(ctx2)


@pytest.fixture(scope="session")
def spread3(ctx3):
    return build_spread(ctx3)


@pytest.fixture(scope="session")
def spread4(ctx4):
    return build_spread(ctx4)


@pytest.fixture(scope="session")
def spread5(ctx5):
    return build_spread(ctx5)


@pytest.fixture(params=["an André Y plane", "a duplicated element", "a line of J(0)"])
def broken_spread(request, monkeypatch):
    """spread.spread_element with J(0) replaced, for this test: by the plane
    Y_1 = {(t, t^q)} of the kind-1 cover (0, 1), which meets its q^2+q+1
    elements (0 not among them) in a point each and has a key of its own,
    by a copy of J(1), or by the span of a line of J(0) and a point of
    J(inf), whose q+1 points on the line do locate to 0.  Returns the
    parameter."""
    real = spread_mod.spread_element

    def element(ctx, m):
        if m:
            return real(ctx, m)
        if request.param == "a duplicated element":
            return real(ctx, 1)
        if request.param == "a line of J(0)":
            j0, j_inf = real(ctx, 0), real(ctx, ctx.q3)
            return plane_from_points(ctx.base, j0.basis[0], j0.basis[1], j_inf.basis[0])
        return graph_plane(ctx, 0, 1, 1)

    monkeypatch.setattr(spread_mod, "spread_element", element)
    return request.param


@pytest.fixture(scope="session")
def spread_by_q(spread2, spread3, spread4, spread5):
    return {2: spread2, 3: spread3, 4: spread4, 5: spread5}
