import shufflesum


def test_all_names_resolve():
    missing = [name for name in shufflesum.__all__ if not hasattr(shufflesum, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(shufflesum.__all__) == len(set(shufflesum.__all__))
