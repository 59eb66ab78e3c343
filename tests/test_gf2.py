from hypothesis import given, strategies as st

from kekulec import gf2


def test_solve_simple():
    # x0 ^ x1 = 1, x1 = 1  ->  x0 = 0
    assert gf2.solve_affine([0b11, 0b10], [1, 1], 2) == 0b10


def test_solve_inconsistent():
    assert gf2.solve_affine([0b01, 0b01], [0, 1], 2) is None


def test_solve_underdetermined_kernel():
    # x0 ^ x1 = b: the free variable x1 is 0, so x0 = b
    assert gf2.solve_affine([0b11], [0], 2) == 0
    assert gf2.solve_affine([0b11], [1], 2) == 0b01


def test_solver_regression_high_pivot_in_row():
    # an incoming row whose lowest bit is free but which still contains an
    # existing pivot column; the naive lowest-bit reduction got this wrong
    rows = [0b00110, 0b01010, 0b11100, 0b10001, 0b00001]
    rhs = [1, 1, 1, 1, 0]
    sol = gf2.solve_affine(rows, rhs, 5)
    for row, b in zip(rows, rhs):
        assert (sol & row).bit_count() % 2 == b


@given(st.lists(st.integers(0, 255), min_size=1, max_size=8),
       st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_solutions_satisfy_system(rows, rhs):
    rhs = rhs[:len(rows)]
    sol = gf2.solve_affine(rows, rhs, 8)
    if sol is None:
        return
    for row, b in zip(rows, rhs):
        assert (sol & row).bit_count() % 2 == b


@given(st.lists(st.integers(0, 1023), max_size=10))
def test_rank_bounds(vectors):
    r = gf2.rank(vectors)
    assert 0 <= r <= min(len(vectors), 10)
    assert gf2.rank(vectors + vectors) == r


def test_span_gray_code_order():
    assert list(gf2.span([0b01, 0b10])) == [0b00, 0b01, 0b11, 0b10]
