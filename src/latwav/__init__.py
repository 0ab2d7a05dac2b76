"""latwav: reduced Lawton systems, lattice encodings, and cross-dimension
transfer of Parseval-frame scaling filters under dyadic dilations.

``import latwav`` executes no layer.  Each module but ``cli`` is registered
in ``sys.modules`` unexecuted and runs on the first read, assignment or
deletion of one of its attributes (``vars()`` and ``import latwav.x``
included); the public names below and the layer attributes
(``latwav.lawton``, ...) resolve through the module ``__getattr__``.
``cli`` stays eager, or ``python -m latwav.cli`` would find it in
``sys.modules`` already and warn.  ``latwav.transfer`` is the function,
which shadows its module, as an eager import would leave it.
"""

import sys as _sys
from _thread import RLock as _RLock
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# Public name -> the layer that defines it.
_ORIGIN = {
    name: layer
    for layer, names in {
        "cascade": ("CascadeGrid", "cascade_step", "initial_grid", "run_cascade",
                    "support_bounding_box", "translate_gram"),
        "encode": ("EncodingParams", "additivity_holds", "decode_index", "decode_support",
                   "encode_index", "encode_support", "flatten_point", "radix_encode"),
        "intlat": ("DilationMatrix", "IntMatrix", "SnfFactorization", "from_adapted",
                   "in_dilated_lattice", "is_expansive", "smith_normal_form", "to_adapted"),
        "lawton": ("Equation", "Filter", "ReducedSystem", "ResidualReport", "SupportSet",
                   "build_reduced_system", "equations_equal_up_to_conjugation",
                   "lawton_residuals", "restrict_index_set"),
        "quincunx": ("shannon_coeff", "sublattice_premise", "support_pattern"),
        "transfer": ("IsoMap", "TransferReport", "from_one_d", "to_one_d", "transfer",
                     "verify_isomorphism"),
        "verify": ("qmf_check",),
    }.items()
    for name in names
}
_LAYERS = ("cascade", "config", "encode", "errors", "filters", "intlat", "jsonio",
           "lawton", "quincunx", "transfer", "verify")

__all__ = sorted(_ORIGIN)

# Held while a layer executes, so a second thread waits for the whole layer
# instead of reading it half-run.  ``importlib.util.LazyLoader`` makes the
# module plain before executing it and, before Python 3.13, takes no lock:
# two threads reading one fresh layer at once then fail with AttributeError.
_LOCK = _RLock()
_RUNNING: set[str] = set()  # layers that the thread holding the lock is executing


class _Layer(_ModuleType):
    """A registered layer that has not executed: the first attribute read,
    assignment or deletion executes it in place, then makes it plain."""

    def _execute(self):
        with _LOCK:
            if type(self) is _Layer:
                spec = _ModuleType.__getattribute__(self, "__spec__")
                if spec.name not in _RUNNING:  # else an access from inside its own execution
                    _RUNNING.add(spec.name)
                    try:
                        spec.loader.exec_module(self)
                        self.__class__ = _ModuleType
                    finally:
                        _RUNNING.discard(spec.name)

    def __getattribute__(self, attr):
        _Layer._execute(self)
        return _ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _Layer._execute(self)
        _ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _Layer._execute(self)
        _ModuleType.__delattr__(self, attr)


def _register_lazily(layers) -> None:
    from importlib.util import find_spec, module_from_spec

    for layer in layers:
        spec = find_spec(f"{__name__}.{layer}")
        module = module_from_spec(spec)
        module.__class__ = _Layer
        _sys.modules[spec.name] = module


_register_lazily(_LAYERS)


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(_sys.modules[f"{__name__}.{_ORIGIN[name]}"], name)
    if name in _LAYERS:
        return _sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    names = {*globals(), *_ORIGIN, *_LAYERS}
    return sorted(n for n in names if n.startswith("__") or not n.startswith("_"))
