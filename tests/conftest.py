import pytest

import systolic as S

# Shared corpus.  Names are stable so reports can be compared across runs.


@pytest.fixture(scope="session")
def octa():
    return S.octahedron()


@pytest.fixture(scope="session")
def icosa():
    return S.icosahedron()


@pytest.fixture(scope="session")
def torus44():
    return S.hex_torus(4, 4)


@pytest.fixture(scope="session")
def window10():
    return S.triangular_lattice_window(10, 4)


@pytest.fixture(scope="session")
def window22():
    return S.triangular_lattice_window(22, 4)


@pytest.fixture(scope="session")
def small_corpus():
    """Connected complexes small enough for subset brute force (<= 14)."""
    return {
        "octahedron": S.octahedron(),
        "icosahedron": S.icosahedron(),
        "cycle4": S.cycle(4),
        "cycle5": S.cycle(5),
        "cycle6": S.cycle(6),
        "cycle7": S.cycle(7),
        "complete2": S.complete(2),
        "complete4": S.complete(4),
        "wheel5": S.wheel(5),
        "wheel6": S.wheel(6),
        "ew5_bare": S.extended_wheel5(False),
        "ew5_dominated": S.extended_wheel5(True),
        "cone_c4": S.cone(S.cycle(4)),
        "cone_c6": S.cone(S.cycle(6)),
        "random13": S.random_flag_complex(13, 0.35, 7),
        "random14": S.random_flag_complex(14, 0.5, 11),
    }


@pytest.fixture(scope="session")
def finite_corpus(small_corpus, torus44):
    """All finite corpus complexes, including those above 14 vertices."""
    out = dict(small_corpus)
    out["hex_torus44"] = torus44
    out["thick_line2"] = S.thick_line(2, 12)[0]
    out["thick_line3"] = S.thick_line(3, 12)[0]
    ball2 = S.triangular_lattice_window(2, 1)
    out["ball2"] = S.FlagComplex(ball2.vertices, ball2.edges())
    return out


@pytest.fixture(scope="session")
def hyperbolic_corpus(window10):
    """(name, target, automorphism) with positive translation length and no
    invariant simplex found."""
    a1, s1 = S.thick_line(1, 12)
    a2, s2 = S.thick_line(2, 12)
    a3, s3 = S.thick_line(3, 12)
    torus = S.hex_torus(4, 4)
    return [
        ("octahedron/antipodal", S.octahedron(), S.octahedron_antipodal()),
        ("torus/translate", torus, S.torus_translation(torus, 4, 4)),
        ("A1/shift", a1, s1),
        ("A2/shift", a2, s2),
        ("A3/shift", a3, s3),
        ("lattice10/t1", window10, S.lattice_translation(window10, 1)),
        ("lattice10/t2", window10, S.lattice_translation(window10, 2)),
        ("lattice10/glide", window10, S.lattice_glide(window10)),
    ]
