import importlib
import pkgutil

import ottopair


def test_every_exported_name_resolves():
    modules = [ottopair] + [
        importlib.import_module(f"ottopair.{info.name}")
        for info in pkgutil.iter_modules(ottopair.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
