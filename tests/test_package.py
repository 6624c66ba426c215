import flagbound

# the README quick tour's imports, plus the kernel backend's name
EXPORTS = {
    "FlagCondition",
    "HilbertProfile",
    "LemmaInput",
    "castelnuovo_bound",
    "flag_genus_interval",
    "genus_from_lemma_input",
    "quadratic_genus_bound",
    "remainder_decomposition",
    "backend_name",
}


def test_top_level_exports():
    assert set(flagbound.__all__) == EXPORTS
    assert len(flagbound.__all__) == len(EXPORTS)
    for name in flagbound.__all__:
        assert getattr(flagbound, name) is not None
