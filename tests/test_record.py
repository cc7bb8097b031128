"""efdyn's records against the standard library's: the same declaration made
with `efdyn._record` and with `dataclasses` constructs, compares, hashes,
prints, refuses assignment and reports bad calls alike."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from efdyn import _record, cli, dynamics, model, scalar
from efdyn.errors import PreconditionViolated
from efdyn.scalar import ScalarBehavior

FROZEN_DATACLASS = dataclasses.dataclass(frozen=True)


def _system_params(record):
    @record
    class SystemParams:
        __qualname__ = "SystemParams"
        N: float
        p: float
        q: float
        a: float = 0.0
        b: float = 0.0
        s: float = 0.0
        m: float = 0.0
        delta: float = 1.0
        mu: float = 1.0
        eps1: int = 1
        eps2: int = 1
        __post_init__ = model.SystemParams.__post_init__
    return SystemParams


def _run_config(record):
    @record
    class RunConfig:
        __qualname__ = "RunConfig"
        command: str
        params: object
        scalar: object
        out: str
        block: dict
    return RunConfig


def _scalar_report(record):
    @record
    class ScalarReport:
        __qualname__ = "ScalarReport"
        params: object
        Q1: float
        Q2: float
        gamma: float
        behavior: ScalarBehavior
        evidence: dict
    return ScalarReport


SP = scalar.ScalarParams(3.0, 2.0, 0.0, 4.0)

# per declaration: its efdyn record, and calls (args, kwargs) to make of both
# twins; the valid ones are compared with each other and, by repr, with the
# efdyn record
DECLARATIONS = {
    "SystemParams": (_system_params, model.SystemParams, [
        ((6.0, 2.0, 2.0), {}),
        ((), {"N": 6.0, "p": 2.0, "q": 2.0}),
        ((6.0, 2.0), {"q": 2.0, "delta": 1.5, "mu": 1.5}),
        ((6, 2, 2, 0, 0, 0, 0, 1, 1, 1, -1), {}),
        ((6.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.5, 1.5), {}),
        ((6.0, 1.0, 2.0), {}),                          # __post_init__: p = 1
        ((6.0, 2.0, 2.0), {"eps1": 0}),                 # __post_init__: eps1 = 0
        ((6.0, 2.0), {}),                               # q missing
        ((), {"p": 2.0, "q": 2.0}),                     # N missing
        ((6.0, 2.0, 2.0) + (0.0,) * 8 + (1,), {}),      # one positional too many
        ((6.0, 2.0, 2.0), {"r": 1.0}),                  # unknown keyword
        ((6.0, 2.0, 2.0), {"p": 2.0}),                  # p given twice
    ]),
    "RunConfig": (_run_config, cli.RunConfig, [
        (("scalar", None, SP, "out", {}), {}),
        (("scalar", None, SP, "out", {"grid": [3, 3]}), {}),
        (("scalar", None, SP), {"out": "out", "block": {}}),
        (("scalar", None, SP, "out"), {}),              # block missing
        (("scalar", None, SP, "out"), {"blocks": {}}),  # unknown keyword
    ]),
    "ScalarReport": (_scalar_report, scalar.ScalarReport, [
        ((SP, 1.0, 5.0, 2.0, ScalarBehavior.SIGN_CHANGING, {}), {}),
        ((SP, 1.0, 5.0, 2.0, ScalarBehavior.SIGN_CHANGING), {"evidence": {"n": 1}}),
        ((SP, 1.0, 5.0, 2.5, ScalarBehavior.SIGN_CHANGING, {}), {}),
        ((SP, 1.0, 5.0, 2.0, ScalarBehavior.SIGN_CHANGING), {}),        # evidence missing
        ((SP, 1.0, 5.0), {"behavior": ScalarBehavior.SIGN_CHANGING,
                          "evidence": {}}),                             # gamma missing
    ]),
}


def _make(cls, args, kw):
    """The record, or the type of the exception its construction raised."""
    try:
        return cls(*args, **kw)
    except (TypeError, PreconditionViolated) as exc:
        return type(exc)


def _hash(obj):
    """hash(obj), or TypeError for a record holding an unhashable field value."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def _refusals(obj, name):
    """The messages of the errors raised by assigning and deleting field `name`."""
    messages = []
    for act in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name)):
        with pytest.raises(AttributeError) as err:
            act()
        messages.append(str(err.value))
    return messages


@pytest.mark.parametrize("name", DECLARATIONS)
def test_records_behave_as_dataclasses(name):
    declare, efdyn_cls, calls = DECLARATIONS[name]
    ours = declare(_record.record)
    ref = declare(FROZEN_DATACLASS)
    made = []
    for args, kw in calls:
        a, b = _make(ours, args, kw), _make(ref, args, kw)
        if isinstance(b, type):
            assert a is b
        else:
            assert repr(a) == repr(b) == repr(efdyn_cls(*args, **kw))
            made.append((a, b))
    assert len(made) >= 3
    for a1, b1 in made:
        assert (a1 == 1) is (b1 == 1) is False
        for a2, b2 in made:
            assert (a1 == a2) is (b1 == b2)
            assert (a1 != a2) is (b1 != b2)
    first = dataclasses.fields(ref)[0].name
    for a, b in made:
        assert _hash(a) == _hash(b)
        assert _refusals(a, first) == _refusals(b, first)


def test_a_class_without_fields_is_refused():
    # a class body compiled without `from __future__ import annotations` on
    # Python 3.14 keeps no __annotations__; it must not pass as an empty record
    class Bare:
        pass

    with pytest.raises(TypeError, match="no annotated fields"):
        _record.record(Bare)


@pytest.mark.parametrize("changes", [{}, {"delta": 1.5, "mu": 1.5}, {"N": 4, "eps2": -1}])
def test_replace_is_dataclasses_replace(changes):
    P = model.SystemParams(6.0, 2.0, 2.0, s=0.5)
    twin = _system_params(FROZEN_DATACLASS)(6.0, 2.0, 2.0, s=0.5)
    assert repr(P.replace(**changes)) == repr(dataclasses.replace(twin, **changes))


@pytest.mark.parametrize("changes,error", [({"p": 1.0}, PreconditionViolated),
                                           ({"eps1": 2}, PreconditionViolated),
                                           ({"r": 1.0}, TypeError)])
def test_replace_refuses_alike(changes, error):
    # the replaced record runs __post_init__ again; an unknown field is a TypeError
    P = model.SystemParams(6.0, 2.0, 2.0)
    twin = _system_params(FROZEN_DATACLASS)(6.0, 2.0, 2.0)
    with pytest.raises(error):
        P.replace(**changes)
    with pytest.raises(error):
        dataclasses.replace(twin, **changes)


def test_shot_outcome_is_a_value():
    # two shots of one seed are two equal values: equal, hashing alike, and
    # equal again after a pickle round trip; assignment is refused
    P = model.hamiltonian_params(6.0, 2.0, 2.0)
    a, b = dynamics.classify_shot(P, 1e-4, 0.0), dynamics.classify_shot(P, 1e-4, 0.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == (f"ShotOutcome(seed=(0.0001, 0.0), s_class={a.s_class!r}, "
                       f"gap={a.gap!r})")
    with pytest.raises(_record.FrozenInstanceError):
        a.s_class = dynamics.SClass.S
    r, t = dynamics.read_shot(P, 1e-4, 0.0), dynamics.read_shot(P, 1e-4, 0.0)
    assert r is not t and r == t and pickle.loads(pickle.dumps(r)) == r
    assert r.s_class is a.s_class and r.to_dict()["seed"] == [1e-4, 0.0]


def test_shot_report_is_a_value():
    # a report keeps its hit times as (name, t) pairs: two reports of one seed
    # are equal and hash alike, also across a pickle round trip and in a set
    P = model.hamiltonian_params(6.0, 1.5, 1.5)
    seed = dynamics._seed(0.3, 1e-4)
    r, t = dynamics.read_shot(P, *seed), dynamics.read_shot(P, *seed)
    assert r is not t and r == t and hash(r) == hash(t)
    back = pickle.loads(pickle.dumps(r))
    assert back == r and hash(back) == hash(r) and len({r, t, back}) == 1
    assert [name for name, _ in r.hit_times] == ["x-bound", "blow-up"]
    assert r.to_dict()["hitTimes"] == dict(r.hit_times)
    image = r.exchanged()
    assert hash(image.exchanged()) == hash(r)
    assert [name for name, _ in image.hit_times] == ["y-bound", "blow-up"]


def test_every_field_of_an_exchange_image_reads():
    # an image is built field by field: it reads as any shot does
    P = model.hamiltonian_params(6.0, 1.5, 1.5)
    seed = dynamics._seed(0.3, 1e-4)
    out, report = dynamics.classify_shot(P, *seed), dynamics.read_shot(P, *seed)
    image = out.exchanged()
    assert (image.seed, image.s_class, image.gap) == (seed[::-1], dynamics.SClass.S2, -out.gap)
    assert image.exchanged() == out
    mirror, hit = report.exchanged(), dict(report.hit_times)
    assert mirror.to_dict() == {"seed": [seed[1], seed[0]], "sClass": "S2", "mClass": "M2",
                                "hitTimes": {"y-bound": hit["x-bound"],
                                             "blow-up": hit["blow-up"]}}
    assert mirror.exchanged() == report
