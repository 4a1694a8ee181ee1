import hilbertgeom


def test_public_names_are_unique_and_resolve():
    # a deleted export must not leave its name behind in __all__
    names = hilbertgeom.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(hilbertgeom, name)
