"""The package lists its public API once: it re-exports every layer's `__all__`."""

import inspect

import pytest

import histories_kit
from histories_kit import bell, config, errors, hilbert, histories, sampler

LAYERS = (config, errors, hilbert, histories, bell, sampler)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_every_layer_name_is_exported(layer):
    for name in layer.__all__:
        assert getattr(histories_kit, name) is getattr(layer, name), name
        assert name in histories_kit.__all__, name


def test_every_exception_is_exported():
    classes = [
        value
        for value in vars(errors).values()
        if inspect.isclass(value) and issubclass(value, Exception) and value.__module__ == errors.__name__
    ]
    assert classes
    for cls in classes:
        assert getattr(histories_kit, cls.__name__) is cls
        assert cls.__name__ in errors.__all__

