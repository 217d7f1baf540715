"""Outside-in probes for the traced run.

Each probe wraps one public name of the program (a module-level function
or a class method) and records how often it was called and how long the
outermost calls took.  Probes are installed only inside a traced child
interpreter, after the program's modules are imported and before the
workload's fixtures are built; untraced runs never import this module.

A probe whose target no longer exists (the module, class or attribute
was removed or renamed) is reported as absent instead of failing the
run, so the program can be refactored without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# name, module, attribute path
PROBES = (
    ("wordops.collect_mul", "coxkit.wordops", "collect_mul"),
    ("wordops.collect_seq", "coxkit.wordops", "collect_seq"),
    ("wordops.braid_closure", "coxkit.wordops", "braid_closure"),
    ("blueprint.group_build", "coxkit.blueprint", "BlueprintGroup.__init__"),
    ("blueprint.certify", "coxkit.blueprint", "BlueprintGroup.certify_order"),
    ("blueprint.gallery_independence", "coxkit.blueprint", "gallery_independence"),
    ("quadrangle.weyl_distance", "coxkit.quadrangle", "TwinModel.weyl_distance"),
    ("quadrangle.panel", "coxkit.quadrangle", "TwinModel.panel"),
    ("quadrangle.model_build", "coxkit.quadrangle", "TwinModel.__init__"),
    ("quadrangle.verify_axioms", "coxkit.quadrangle", "TwinModel.verify_axioms"),
    ("treeprod.eval_word", "coxkit.treeprod", "TreeProduct.eval_word"),
    ("treeprod.product_build", "coxkit.treeprod", "TreeProduct.__init__"),
    ("treeprod.is_identity", "coxkit.treeprod", "TreeProduct.is_identity"),
    ("reduction.reduce", "coxkit.reduction", "TheoremSetup.reduce"),
    ("reduction.trace_word", "coxkit.reduction", "trace_word"),
    ("roots.member", "coxkit.roots", "RootSystem.member"),
    ("roots.pair_class", "coxkit.roots", "RootSystem.pair_class"),
    ("roots.root_from", "coxkit.roots", "RootSystem.root_from"),
    ("coxeter.ball", "coxkit.coxeter", "Coxeter.ball"),
    ("coxeter.oracle", "coxkit.coxeter", "Coxeter.ball_oracle_size"),
    ("constructions.construction", "coxkit.constructions", "Builder.construction"),
)
# a call-count metric named other than <probe>_calls
CALLS_METRIC = {"blueprint.group_build": "blueprint.groups_built"}
# probe -> (metric, tally): the tally maps each call's result to a count
# summed into that metric; reduce returns (word, steps)
TALLIES = {"reduction.reduce": ("reduction.reduce_steps", lambda result: result[1])}


class Probe:
    """Call count, inclusive time of outermost calls, and an optional tally."""

    def __init__(self, name: str, target: str):
        self.target = target
        self.calls = 0
        self.seconds = 0.0
        self.tally_total = 0
        tally = TALLIES.get(name)
        self._tally = tally[1] if tally else None
        self._depth = 0
        # the per-layer metrics this probe reports, in snapshot order
        self.metrics = [CALLS_METRIC.get(name, f"{name}_calls"), f"{name}_s"] \
            + ([tally[0]] if tally else [])

    def wrap(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            self.calls += 1
            if self._depth:
                result = fn(*args, **kwargs)
            else:
                self._depth = 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.seconds += clock() - t0
                    self._depth = 0
            if self._tally is not None:
                self.tally_total += self._tally(result)
            return result
        return probed


def import_program(package: str = "coxkit") -> None:
    """Import every public submodule, so that names bound by
    ``from module import name`` exist before probes rebind them."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        if not info.name.rsplit(".", 1)[1].startswith("_"):
            importlib.import_module(info.name)


def _public_modules(package: str):
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(package + "."):
            continue
        if any(part.startswith("_") for part in name.split(".")[1:]):
            continue
        yield module


def _resolve(module_name: str, path: str):
    """(class or None, attribute, raw target); LookupError says why not."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} cannot be imported: {exc}") from exc
    *owner_path, attr = path.split(".")
    try:
        for part in owner_path:
            owner = getattr(owner, part)
        target = getattr(owner, attr)
    except AttributeError:
        raise LookupError(f"{module_name}.{path} no longer exists") from None
    if not owner_path:
        return None, attr, target
    # the raw class attribute, so that staticmethod/classmethod stay intact
    return owner, attr, next(klass.__dict__[attr] for klass in owner.__mro__
                             if attr in klass.__dict__)


def install(package: str = "coxkit") -> tuple[dict, dict]:
    """Install every probe; returns (probes by name, absent metric -> reason)."""
    import_program(package)
    probes, absent = {}, {}
    for name, module_name, path in PROBES:
        probe = Probe(name, f"{module_name}.{path}")
        try:
            cls, attr, target = _resolve(module_name, path)
        except LookupError as exc:
            absent.update(dict.fromkeys(probe.metrics, str(exc)))
            continue
        kind = type(target) if isinstance(target, (staticmethod, classmethod)) \
            else None
        fn = target.__func__ if kind else target
        if not callable(fn):
            absent.update(dict.fromkeys(probe.metrics,
                                        f"{module_name}.{path} is not a function"))
            continue
        wrapped = probe.wrap(fn)
        if cls is not None:
            setattr(cls, attr, kind(wrapped) if kind else wrapped)
        else:
            # rebind every public module that imported the function by name
            for module in _public_modules(package):
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapped)
        probes[name] = probe
    return probes, absent


def snapshot(probes: dict) -> tuple[dict, dict]:
    """(per-layer metrics, absent metric -> reason).  A probe that was
    never called reports nothing and its metrics are absent."""
    values, absent = {}, {}
    for p in probes.values():
        if p.calls:
            values.update(zip(p.metrics, (p.calls, p.seconds, p.tally_total)))
        else:
            absent.update(dict.fromkeys(p.metrics, f"{p.target} was never called"))
    return values, absent
