"""The JSON file formats: scenarios, measurements and state specs.

Every reader and writer of the formats lives here; ``network`` and
``measurements`` know nothing about files.  Decoding is strict: each
number must be a finite JSON number (a string or a boolean is not one),
each integer a JSON integer, each list a list, and every failure is a
``ValidationError`` whose message starts with the path of the offending
node inside the document (``scenario.sources[1]``, ``povm.effects[0]``,
...).

A matrix is ``{"dim": d, "entries": [[re, im], ...]}`` in row-major order.
Each list of matrices is decoded by one pass over all of its pairs into one
read-only (K, d, d) array, which the validating classes check as a stack.
A loader checks the types of a file's numbers with one sum when the file's
bytes hold neither ``true`` nor ``false`` (``_finite_array``).
"""

from __future__ import annotations

import gc
import json
from itertools import chain

import numpy as np

from .errors import ValidationError
from .measurements import MixedStateSpec, Povm
from .network import BinaryObservableTriple, Scenario


def _refuse_constant(name):
    """``parse_constant`` of ``_read_json``: NaN, Infinity and -Infinity are not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def _unique_object(pairs) -> dict:
    """``object_pairs_hook`` of ``_read_json``: a dict of the pairs; a repeated key raises."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeat = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"duplicate key {repeat!r}")
    return doc


def _holds_boolean(raw: bytes) -> bool:
    """Whether ``raw`` holds ``true`` or ``false``, the only spellings of a JSON boolean.

    The candidates are the bytes 'u' of ``true`` and 'f' of ``false``, each
    found by memchr; the formats' keys hold only a few, so a file takes
    microseconds, where ``b"true" in raw`` steps through digits byte by byte
    (0.2 ms for a 300 KB file).
    """
    for literal, at in ((b"true", 2), (b"false", 0)):
        i = raw.find(literal[at], at)
        while i >= 0:
            if raw.startswith(literal, i - at):
                return True
            i = raw.find(literal[at], i + 1)
    return False


def _read_json(path, digests):
    """The document of a file of strict JSON, and whether its bytes hold a boolean literal.

    Strict: no NaN or Infinity literal and no repeated key.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if digests is not None:
        import hashlib  # its OpenSSL library, about 4 MB of RSS, loads only for a caller that asks

        digests[path] = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant,
                         object_pairs_hook=_unique_object)
        return doc, _holds_boolean(raw)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None


def _load(from_json, path, digests):
    """``from_json(*_read_json(path, digests))`` with Python's cyclic garbage collector paused.

    Every loader reads through here, and ``from_json`` takes the document and
    whether the file may hold a boolean (``_finite_array``'s ``booleans``).
    A ``digests`` dict, when given, receives the SHA-256 hex digest of the
    bytes read, under ``path``: the file is read once for both.  The pause
    is process-wide, so an application that embeds starcert sees it.  A
    decoded document is a tree of dicts, lists, strings and numbers with no
    reference cycle, so a collection over its [re, im] lists could free
    nothing; they are freed by reference counting before GC resumes.

    Decoding and validation run with numpy's overflow and invalid-value
    warnings off: a finite entry near the float64 limit (1e308) overflows
    inside the checks, which then refuse it with a ``ValidationError``,
    and the warning alone would escape as an exception under ``-W error``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return from_json(*_read_json(path, digests))
    finally:
        if was_enabled:
            gc.enable()


def _require_object(doc, path: str, keys) -> None:
    if not isinstance(doc, dict):
        names = ", ".join(f"'{k}'" for k in keys)
        raise ValidationError(f"{path}: expected an object with fields {names}")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{path}: missing field '{key}'")


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: must be an integer")
    return value


def _finite_array(values, path: str, pairs: bool = False, booleans: bool = True) -> np.ndarray:
    """A list of numbers, or with ``pairs`` of [re, im] pairs, as a flat float vector.

    Each number must be a JSON number (an ``int`` or a ``float``, so not a
    string or a boolean) and finite.  A valid list takes one length check of
    the pairs, one flatten, one type check of the numbers and one
    ``np.fromiter``; a pair that is not a list fails the type check, since
    flattening yields its keys or characters.  The type check is the set of
    the numbers' types or, when the document holds no boolean (``booleans``
    False), one ``sum(flat, 0.0)``, which raises on every other JSON value
    but a number.  When the pass fails, ``_ordered_numbers`` names the first
    fault in order.
    """
    try:
        if not isinstance(values, list):
            raise TypeError
        flat = values
        if pairs:
            if set(map(len, values)) != {2}:
                raise TypeError
            flat = list(chain.from_iterable(values))
        if not booleans:
            sum(flat, 0.0)
        elif not set(map(type, flat)) <= {int, float}:
            raise TypeError
        arr = np.fromiter(flat, float, len(flat))
    except (TypeError, OverflowError):  # a 400-digit integer overflows the sum or np.fromiter
        arr = _ordered_numbers(values, path, pairs)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: entries must be finite numbers")
    return arr


def _ordered_numbers(values, path: str, pairs: bool) -> np.ndarray:
    """``_finite_array``'s checks one at a time: the list, its pairs, the number types, the decode."""
    what = "[re, im] pairs" if pairs else "numbers"
    if not isinstance(values, list):
        raise ValidationError(
            f"{path}: malformed numbers: expected a list of {what}, got {type(values).__name__}"
        )
    flat = values
    if pairs:
        if set(map(type, values)) != {list} or set(map(len, values)) != {2}:
            raise ValidationError(f"{path}: expected a non-empty list of {what}")
        flat = list(chain.from_iterable(values))
    kinds = set(map(type, flat)) - {int, float}
    if kinds:
        names = ", ".join(sorted(t.__name__ for t in kinds))
        raise ValidationError(
            f"{path}: malformed numbers: entries must be JSON numbers, got {names}"
        )
    try:
        return np.fromiter(flat, float, len(flat))
    except OverflowError as exc:
        raise ValidationError(f"{path}: malformed numbers ({exc})") from None


def _complex_entries(values, path: str, booleans: bool = True) -> np.ndarray:
    """A list of [re, im] pairs as a complex vector, decoded in one vectorised step."""
    return _finite_array(values, path, pairs=True, booleans=booleans).view(complex)


def _pairs_to_json(values) -> list:
    """Row-major [re, im] pairs of a complex array, the inverse of ``_complex_entries``."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    return flat.view(float).reshape(-1, 2).tolist()


def _build(cls, path: str, *args, **kwargs):
    """Construct a validating object; its ValueError becomes a ValidationError at ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def matrix_to_json(m: np.ndarray) -> dict:
    return {"dim": int(np.shape(m)[0]), "entries": _pairs_to_json(m)}


def matrix_from_json(doc, path: str) -> np.ndarray:
    _require_object(doc, path, ("dim", "entries"))
    dim = _int(doc["dim"], f"{path}.dim")
    if dim < 1:
        raise ValidationError(f"{path}.dim: must be at least 1")
    entries = _complex_entries(doc["entries"], f"{path}.entries")
    if entries.size != dim * dim:
        raise ValidationError(
            f"{path}: expected {dim * dim} entries for dim {dim}, got {entries.size}"
        )
    return entries.reshape(dim, dim)


def _matrices_from_json(docs, path: str, booleans: bool = True):
    """A list of matrices, decoded with one strict pass over all of its [re, im] pairs.

    The result is one read-only (K, d, d) complex array, or, when the dims
    differ (sources of unequal parties), a tuple of read-only (d, d) views of
    one decoded vector.  When the pass fails, each matrix is decoded alone,
    in document order, so that the first faulty one names itself.
    ``booleans`` is ``_finite_array``'s.
    """
    docs = _list(docs, path)
    stack = _decoded_stack(docs, booleans) if docs else ()
    if stack is None:
        for i, doc in enumerate(docs):
            matrix_from_json(doc, f"{path}[{i}]")
    return stack


def _decoded_stack(docs, booleans: bool):
    """``_matrices_from_json``'s result for a non-empty list, or None if any matrix is at fault.

    The checks of ``matrix_from_json`` run on the whole list: the fields of
    each document, then one ``_complex_entries`` pass over all of the pairs.
    """
    dims, pairs = [], []
    for doc in docs:
        doc = doc if isinstance(doc, dict) else {}
        dim, values = doc.get("dim"), doc.get("entries")
        if (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1
                or not isinstance(values, list) or len(values) != dim * dim):
            return None
        dims.append(dim)
        pairs += values
    try:
        flat = _complex_entries(pairs, "", booleans)
    except ValidationError:
        return None
    flat.flags.writeable = False
    if len(set(dims)) == 1:
        return flat.reshape(len(dims), dims[0], dims[0])
    ends = np.cumsum([d * d for d in dims]).tolist()
    return tuple(flat[e - d * d:e].reshape(d, d) for d, e in zip(dims, ends))


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "n_parties": scenario.n_parties,
        "sources": [matrix_to_json(s) for s in scenario.sources],
        "alice_observables": [
            [matrix_to_json(o) for o in triple.observables()]
            for triple in scenario.alice_observables
        ],
        "eve_measurements": [
            [matrix_to_json(m) for m in meas.effects] for meas in scenario.eve
        ],
    }


def scenario_from_json(doc) -> Scenario:
    return _scenario(doc, booleans=True)


def _scenario(doc, booleans: bool) -> Scenario:
    """``scenario_from_json``, with ``booleans`` as in ``_finite_array``."""
    _require_object(doc, "scenario", ("n_parties", "sources", "alice_observables",
                                      "eve_measurements"))
    n = _int(doc["n_parties"], "scenario.n_parties")
    sources = _matrices_from_json(doc["sources"], "scenario.sources", booleans)
    triples = []
    for i, triple in enumerate(_list(doc["alice_observables"], "scenario.alice_observables")):
        path = f"scenario.alice_observables[{i}]"
        mats = _matrices_from_json(triple, path, booleans)
        if len(mats) != 3:
            raise ValidationError(f"{path}: expected 3 observables, got {len(mats)}")
        triples.append(_build(BinaryObservableTriple, path, *mats))
    measurements = _list(doc["eve_measurements"], "scenario.eve_measurements")
    if len(measurements) != 2:
        raise ValidationError("scenario.eve_measurements: expected exactly two measurements")
    eve = []
    for e, meas in enumerate(measurements):
        path = f"scenario.eve_measurements[{e}]"
        eve.append(_build(Povm, path, _matrices_from_json(meas, path, booleans)))
    return _build(Scenario, "scenario", n_parties=n, sources=sources,
                  alice_observables=tuple(triples), eve=tuple(eve))


def load_scenario(path, digests: dict | None = None) -> Scenario:
    """Read and validate a scenario file (see ``_load``)."""
    return _load(_scenario, path, digests)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_json(scenario), f)


# ---------------------------------------------------------------------------
# Reference measurements
# ---------------------------------------------------------------------------

def povm_to_json(povm: Povm) -> dict:
    return {"dim": povm.dim, "effects": [matrix_to_json(m) for m in povm.effects]}


def povm_from_json(doc) -> Povm:
    return _povm(doc, booleans=True)


def _povm(doc, booleans: bool) -> Povm:
    """``povm_from_json``, with ``booleans`` as in ``_finite_array``."""
    _require_object(doc, "povm", ("effects",))
    effects = _matrices_from_json(doc["effects"], "povm.effects", booleans)
    if "dim" in doc:
        dim = _int(doc["dim"], "povm.dim")
        if len(effects) and effects[0].shape[0] != dim:
            raise ValidationError("povm.dim: does not match the effect matrices")
    return _build(Povm, "povm", effects)


def load_povm(path, digests: dict | None = None) -> Povm:
    """Read and validate a reference measurement file (see ``_load``)."""
    return _load(_povm, path, digests)


# ---------------------------------------------------------------------------
# Target state specs
# ---------------------------------------------------------------------------

def mixed_state_spec_to_json(spec: MixedStateSpec) -> dict:
    return {
        "d": spec.d,
        "weights": list(spec.weights),
        "vectors": [_pairs_to_json(v) for v in spec.vectors],
    }


def mixed_state_spec_from_json(doc) -> MixedStateSpec:
    return _mixed_state_spec(doc, booleans=True)


def _mixed_state_spec(doc, booleans: bool) -> MixedStateSpec:
    """``mixed_state_spec_from_json``, with ``booleans`` as in ``_finite_array``."""
    _require_object(doc, "state spec", ("d", "weights", "vectors"))
    d = _int(doc["d"], "state spec.d")
    weights = tuple(_finite_array(doc["weights"], "state spec.weights", booleans=booleans).tolist())
    vectors = tuple(
        _complex_entries(v, f"state spec.vectors[{k}]", booleans)
        for k, v in enumerate(_list(doc["vectors"], "state spec.vectors"))
    )
    return _build(MixedStateSpec, "state spec", d=d, weights=weights, vectors=vectors)


def load_mixed_state_spec(path, digests: dict | None = None) -> MixedStateSpec:
    """Read and validate a target state spec file (see ``_load``)."""
    return _load(_mixed_state_spec, path, digests)
