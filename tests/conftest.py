import pytest


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("poly-cache"))


@pytest.fixture
def wrong_c1():
    """alg -> c(1) of ``alg`` with its first coefficient off by one."""
    from rclab.brackets import compute_c
    from rclab.poly import Poly
    from rclab.sympoly import BracketPolynomial

    def build(alg):
        good = compute_c(alg, 1).poly
        coef = good.coef.copy()
        coef[0, 0, 0] += good.den
        return BracketPolynomial(alg, 1, Poly(good.exps, coef, good.den))

    return build


@pytest.fixture
def fresh_chart_rule():
    """The polar-chart rule is memoised per algebra: a test that breaks a
    piece of it must rebuild it, and must not leave the broken rule to later
    tests."""
    from rclab import quadrature

    quadrature._chart_rule.cache_clear()
    yield
    quadrature._chart_rule.cache_clear()


@pytest.fixture
def fresh_tables():
    """sympoly memoises its integer tables and L per algebra: a test that
    breaks one must rebuild it, and must not leave the broken one to later
    tests."""
    from rclab import sympoly

    tables = (sympoly._pencil_tables, sympoly._eigen_tables, sympoly._faa_di_bruno,
              sympoly._pencil_operator)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()
