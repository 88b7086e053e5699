"""The public surface of every scanstat module takes no private parameter.

A parameter whose name starts with `_` is a switch meant for one caller; it
belongs in that caller (or in a test), not in the signature of a public
function or method.
"""

import importlib
import inspect
import pkgutil

import scanstat


def _public_callables():
    for info in pkgutil.iter_modules(scanstat.__path__):
        module = importlib.import_module(f"scanstat.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)  # unwrap staticmethod and classmethod
                    if not attr.startswith("_") and inspect.isfunction(func):
                        yield f"{module.__name__}.{name}.{attr}", func


def test_no_public_function_takes_a_private_parameter():
    callables = dict(_public_callables())
    assert {"scanstat.measures.left_limit", "scanstat.cli.main", "scanstat.exppoly.ExpPoly.term"} <= set(callables)
    private = [
        f"{name}({param})"
        for name, func in callables.items()
        for param in inspect.signature(func).parameters
        if param.startswith("_")
    ]
    assert private == []
