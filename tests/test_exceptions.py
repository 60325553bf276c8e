import pytest

from gatemem.exceptions import IncompleteDataError, SingularChannelError, context


def test_context_prefixes_the_message_and_keeps_type_and_fields():
    with pytest.raises(IncompleteDataError) as err:
        with context("records file P"):
            raise IncompleteDataError("missing preparations: ['Z-']", ["Z-"])
    assert str(err.value) == "records file P: missing preparations: ['Z-']"
    assert err.value.missing == ["Z-"]


def test_nested_contexts_prefix_outermost_first():
    with pytest.raises(SingularChannelError) as err:
        with context("cp cell X@0,Z@0"), context("first gate X@0"):
            raise SingularChannelError("superoperator is singular", 0.0, 1.5)
    assert str(err.value) == "cp cell X@0,Z@0: first gate X@0: superoperator is singular"
    assert (err.value.sigma_min, err.value.sigma_max) == (0.0, 1.5)


def test_context_leaves_other_errors_alone():
    with pytest.raises(KeyError) as err:
        with context("record 3"):
            raise KeyError("shots")
    assert err.value.args == ("shots",)
