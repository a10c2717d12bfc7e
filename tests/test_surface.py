import importlib
import inspect

import pytest

LIBRARY = ["superflip", "superflip.grassmann", "superflip.torus", "superflip.osp12", "superflip.markoff",
           "superflip.identity"]


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_every_public_function_and_class(name):
    mod = importlib.import_module(name)
    public = {
        key for key, value in vars(mod).items()
        if not key.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    }
    assert sorted(public - set(mod.__all__)) == []
    assert [key for key in mod.__all__ if not hasattr(mod, key)] == []
