"""One codec for every wire and journal dataclass, derived from its fields.

:func:`encode` turns a dataclass into JSON-native data and
:func:`decode` turns it back.  Neither is written per class: the first
time a class is seen, its encoder and decoder are generated from
:func:`dataclasses.fields` and :func:`typing.get_type_hints` and cached,
so the pair is symmetric by construction.  They are generated as Python
source and compiled, so each runs as fast as the hand-written code it
replaced: interpreting a per-field plan instead would pay a loop step
and a call per field on every message.  The type rules:

* a nested dataclass is a JSON object (its own derived form);
* ``tuple[X, ...]`` is a list, ``tuple[X, Y, Z]`` a list of that length;
* ``X | None`` is ``X`` or ``null``;
* an :class:`~enum.Enum` travels as its value;
* ``float``/``int``/``str`` are checked with :func:`as_float` and
  friends, ``dict``/``list`` with :func:`expect_mapping`/:func:`as_list`.

A field without a default is required on decode; a field with one may
be absent.  :func:`declare` records where a class's wire form is not
just its fields (a :class:`Form`: renamed or omitted keys, key order,
fields required despite a default, output-only properties, a compact
form for one field), or hands a type a hand-written :class:`Codec`.
Declarations are module-level, next to the classes they describe, and
the generated functions are cached for the life of the process.

Every decode failure raises :class:`~repro.exceptions.ApiError`: a
missing key, a wrong JSON type or an unknown enum value is
``malformed_payload``; a value its constructor rejects is
``invalid_payload`` (``invalid_spec`` for
:class:`~repro.exceptions.InvalidSpecError`), so no payload can surface
a raw traceback.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from dataclasses import dataclass, field

from repro.exceptions import ApiError, InvalidSpecError


# ------------------------------------------------------------------ checks
def expect_mapping(payload, what: str) -> dict:
    """The payload must be a JSON object; anything else is an ApiError."""
    if not isinstance(payload, dict):
        raise ApiError(
            f"{what} must be a JSON object, got {type(payload).__name__}",
            code="malformed_payload",
        )
    return payload


def require(payload: dict, key: str, what: str):
    """Fetch a required field, mapping absence to a typed error."""
    expect_mapping(payload, what)
    if key not in payload:
        _raise_missing(what, key)
    return payload[key]


def as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ApiError(
            f"{what} must be a number, got {type(value).__name__}",
            code="malformed_payload",
        )
    return float(value)


def as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(
            f"{what} must be an integer, got {type(value).__name__}",
            code="malformed_payload",
        )
    return value


def as_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ApiError(
            f"{what} must be a string, got {type(value).__name__}",
            code="malformed_payload",
        )
    return value


def as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ApiError(
            f"{what} must be a list, got {type(value).__name__}",
            code="malformed_payload",
        )
    return value


def _raise_missing(what: str, key: str):
    raise ApiError(
        f"{what} is missing required field {key!r}", code="malformed_payload"
    )


def _payload_error(what: str, exc: Exception) -> ApiError:
    """A constructor's rejection of a decoded value, as a typed error."""
    code = "invalid_spec" if isinstance(exc, InvalidSpecError) else "invalid_payload"
    return ApiError(f"invalid {what} payload: {exc}", code=code)


def _as_enum(enum_cls, value, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        raise ApiError(
            f"{what} must be one of "
            f"{[member.value for member in enum_cls]}, got {value!r}",
            code="malformed_payload",
        ) from None


def _as_fixed(value, what: str, checks) -> tuple:
    items = as_list(value, what)
    if len(items) != len(checks):
        raise ApiError(
            f"{what} must have exactly {len(checks)} coordinates",
            code="malformed_payload",
        )
    return tuple(check(item, f"{what}[]") for check, item in zip(checks, items))


def _as_positional(value, what: str, keys: tuple) -> list:
    items = as_list(value, what)
    if len(items) != len(keys):
        raise ApiError(
            f"{what} must be [{', '.join(keys)}], got {len(items)} value(s)",
            code="invalid_payload",
        )
    return items


_SCALARS = {float: as_float, int: as_int, str: as_str}


# ------------------------------------------------------------ declarations
@dataclass(frozen=True, eq=False)
class Codec:
    """A hand-written value codec: ``encode(value)`` and
    ``decode(payload, key)``, where ``key`` names the value in errors."""

    encode: typing.Callable
    decode: typing.Callable


@dataclass(frozen=True, eq=False)
class Form:
    """How one dataclass appears on the wire where that is not simply
    its fields, each under its own name, in field order.

    ``keys``
        field name → wire key, for renamed fields.
    ``order``
        wire keys emitted first, in this order; the rest follow in
        field order.
    ``omit``
        fields left off the wire while they equal their default; they
        are emitted after every other key.
    ``required``
        fields a payload must carry although they have a default.
    ``output_only``
        properties encoded under their own name but never decoded
        (place them with ``order``).
    ``forms``
        field name → a compact :class:`Form` for the dataclass inside
        that field (a tuple field's elements, an optional field's
        value), or a :class:`Codec` for the whole value.
    ``tag``
        constant ``(key, value)`` pairs emitted before everything else
        and ignored on decode (envelope and event framing).
    ``positional``
        encode as a JSON list of the field values in field order.
    ``what``
        the name decode errors use (default: the class name).
    """

    cls: type
    keys: dict = field(default_factory=dict)
    order: tuple = ()
    omit: tuple = ()
    required: tuple = ()
    output_only: tuple = ()
    forms: dict = field(default_factory=dict)
    tag: tuple = ()
    positional: bool = False
    what: str = ""


#: class → its registered Form or Codec.
_DECLARED: "dict[type, Form | Codec]" = {}
#: Names type hints may use without importing them (import cycles).
_NAMES: "dict[str, type]" = {}
#: Form → its generated encoder / decoder.
_ENCODERS: "dict[Form, typing.Callable]" = {}
_DECODERS: "dict[Form, typing.Callable]" = {}


def declare(cls: type, codec: "Codec | None" = None, **overrides) -> None:
    """Record ``cls``'s wire form: a :class:`Form` built from
    ``overrides``, or the hand-written ``codec``."""
    _DECLARED[cls] = codec if codec is not None else Form(cls, **overrides)
    _NAMES[cls.__name__] = cls


def _form_of(cls: type) -> "Form | Codec":
    declared = _DECLARED.get(cls)
    if declared is not None:
        return declared
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} has no wire form")
    return _DECLARED.setdefault(cls, Form(cls))


# ------------------------------------------------------------------- entry
def encode(value):
    """``value`` (a declared type or any dataclass) as JSON-native data."""
    return _encoder(_form_of(type(value)))(value)


def decode(cls: type, payload):
    """The ``cls`` instance ``payload`` encodes; raises ApiError if none."""
    return _decoder(_form_of(cls))(payload)


def _encoder(form: "Form | Codec") -> typing.Callable:
    """The encoder of one form, generated on first use."""
    if isinstance(form, Codec):
        return form.encode
    fn = _ENCODERS.get(form)
    if fn is None:
        fn = _ENCODERS[form] = _SourceWriter(form).encoder()
    return fn


def _decoder(form: "Form | Codec") -> typing.Callable:
    """The decoder of one form, generated on first use; it takes the
    payload and, for a positional form, the key naming it in errors."""
    if isinstance(form, Codec):
        return form.decode
    fn = _DECODERS.get(form)
    if fn is None:
        fn = _DECODERS[form] = _SourceWriter(form).decoder()
    return fn


# --------------------------------------------------------------- generation
@dataclass
class _Slot:
    """One wire key of a form."""

    name: str  # field or property name
    key: str
    hint: object
    form: "Form | Codec | None"
    default: object  # dataclasses.MISSING when the key is required
    factory: object  # default_factory, or MISSING
    omit: bool
    output_only: bool


def _optional(hint) -> "tuple[object, bool]":
    """``X | None`` → ``(X, True)``; anything else → ``(hint, False)``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1 and len(typing.get_args(hint)) == 2:
            return args[0], True
    return hint, False


class _SourceWriter:
    """Writes one form's encoder and decoder as Python source and
    compiles it, the way :mod:`dataclasses` builds ``__init__``."""

    def __init__(self, form: Form):
        self.form = form
        self.cls = form.cls
        self.what = form.what or form.cls.__name__
        self.ns: dict = {
            "_cls": form.cls,
            "_what": self.what,
            "ApiError": ApiError,
            "_payload_error": _payload_error,
            "_raise_missing": _raise_missing,
            "expect_mapping": expect_mapping,
            "as_list": as_list,
            "as_float": as_float,
            "as_int": as_int,
            "as_str": as_str,
        }
        self.slots = self._slots()

    # ---------------------------------------------------------------- slots
    def _slots(self) -> "list[_Slot]":
        form = self.form
        hints = typing.get_type_hints(self.cls, localns=_NAMES)
        slots = []
        for f in dataclasses.fields(self.cls):
            if not f.init:
                continue
            required = f.name in form.required
            slots.append(
                _Slot(
                    name=f.name,
                    key=form.keys.get(f.name, f.name),
                    hint=hints[f.name],
                    form=form.forms.get(f.name),
                    default=dataclasses.MISSING if required else f.default,
                    factory=dataclasses.MISSING if required else f.default_factory,
                    omit=f.name in form.omit,
                    output_only=False,
                )
            )
        for name in form.output_only:
            slots.append(
                _Slot(name, name, None, None, None, None, False, output_only=True)
            )
        rank = {key: i for i, key in enumerate(form.order)}
        unknown = set(rank) - {slot.key for slot in slots}
        if unknown:
            raise TypeError(f"{self.what} form orders unknown keys {sorted(unknown)}")
        slots.sort(key=lambda s: (s.omit, rank.get(s.key, len(rank))))
        return slots

    def _name(self, value, prefix: str) -> str:
        """Bind ``value`` in the generated code's namespace."""
        name = f"_{prefix}{len(self.ns)}"
        self.ns[name] = value
        return name

    def _compile(self, source: str, name: str):
        code = compile(source, f"<codec {self.what}>", "exec")
        exec(code, self.ns)
        fn = self.ns[name]
        fn.__qualname__ = f"{name}[{self.what}]"
        return fn

    # -------------------------------------------------------------- encoding
    def _encode_expr(self, hint, src: str, form=None, depth: int = 0) -> str:
        """Expression encoding the value ``src`` of type ``hint``; a
        ``form`` override replaces the innermost dataclass's form, or,
        as a :class:`Codec`, encodes the whole value."""
        if isinstance(form, Codec):
            return f"{self._name(form.encode, 'enc')}({src})"
        hint, optional = _optional(hint)
        if typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            var = f"v{depth}"
            if len(args) == 2 and args[1] is Ellipsis:
                element = self._encode_expr(args[0], var, form, depth + 1)
            elif all(arg in _SCALARS for arg in args):
                element = var
            else:
                raise TypeError(f"{self.what}: unsupported tuple type {hint}")
            expr = (
                f"list({src})"
                if element == var
                else f"[{element} for {var} in {src}]"
            )
        elif form is not None or hint in _DECLARED or dataclasses.is_dataclass(hint):
            expr = f"{self._name(_encoder(form or _form_of(hint)), 'enc')}({src})"
        elif isinstance(hint, type) and issubclass(hint, enum.Enum):
            expr = f"{src}.value"
        else:
            return src
        return f"(None if {src} is None else {expr})" if optional else expr

    def _encode_slot(self, slot: _Slot) -> str:
        src = f"obj.{slot.name}"
        if slot.output_only:
            return src
        return self._encode_expr(slot.hint, src, slot.form)

    def encoder(self):
        if self.form.positional:
            items = ", ".join(self._encode_slot(s) for s in self.slots)
            return self._compile(f"def encode(obj):\n    return [{items}]\n", "encode")
        fixed = [f"{key!r}: {value!r}" for key, value in self.form.tag] + [
            f"{slot.key!r}: {self._encode_slot(slot)}"
            for slot in self.slots
            if not slot.omit
        ]
        literal = f"{{{', '.join(fixed)}}}"
        if not any(slot.omit for slot in self.slots):
            return self._compile(f"def encode(obj):\n    return {literal}\n", "encode")
        lines = ["def encode(obj):", f"    out = {literal}"]
        for slot in self.slots:
            if slot.omit:
                test = (
                    f"obj.{slot.name} is not None"
                    if slot.default is None
                    else f"obj.{slot.name} != {self._name(slot.default, 'default')}"
                )
                lines.append(f"    if {test}:")
                lines.append(f"        out[{slot.key!r}] = {self._encode_slot(slot)}")
        lines.append("    return out")
        return self._compile("\n".join(lines) + "\n", "encode")

    # -------------------------------------------------------------- decoding
    def _decode_expr(self, hint, src: str, what: str, form=None, depth: int = 0) -> str:
        """Expression decoding the JSON value ``src`` into ``hint``;
        ``what`` names the value in errors, ``form`` as for encoding."""
        if isinstance(form, Codec):
            return f"{self._name(form.decode, 'dec')}({src}, {what!r})"
        hint, optional = _optional(hint)
        if typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            if len(args) == 2 and args[1] is Ellipsis:
                var = f"v{depth}"
                element = self._decode_expr(args[0], var, f"{what}[]", form, depth + 1)
                expr = f"tuple([{element} for {var} in as_list({src}, {what!r})])"
            elif all(arg in _SCALARS for arg in args):
                checks = self._name(tuple(_SCALARS[arg] for arg in args), "checks")
                expr = f"{self._name(_as_fixed, 'fixed')}({src}, {what!r}, {checks})"
            else:
                raise TypeError(f"{self.what}: unsupported tuple type {hint}")
        elif form is not None or hint in _DECLARED or dataclasses.is_dataclass(hint):
            fn = self._name(_decoder(form or _form_of(hint)), "dec")
            expr = f"{fn}({src}, {what!r})"
        elif isinstance(hint, type) and issubclass(hint, enum.Enum):
            fn = self._name(_as_enum, "enum")
            expr = f"{fn}({self._name(hint, 'enum')}, {src}, {what!r})"
        elif hint in _SCALARS:
            expr = f"{_SCALARS[hint].__name__}({src}, {what!r})"
        elif hint is dict or typing.get_origin(hint) is dict:
            expr = f"expect_mapping({src}, {what!r})"
        elif hint is list or typing.get_origin(hint) is list:
            expr = f"as_list({src}, {what!r})"
        else:
            return src
        return f"(None if {src} is None else {expr})" if optional else expr

    def decoder(self):
        # ``what`` is the key a positional form sits under, for its
        # errors; a JSON object form names itself by ``_what``.
        slots = [s for s in self.slots if not s.output_only]
        lines = ["def decode(p, what=_what):"]
        if self.form.positional:
            keys = self._name(tuple(s.key for s in slots), "keys")
            positional = self._name(_as_positional, "positional")
            lines.append(f"    items = {positional}(p, what, {keys})")
        else:
            lines.append("    if not isinstance(p, dict):")
            lines.append("        expect_mapping(p, _what)")
        lines.append("    try:")
        args = []
        for i, slot in enumerate(slots):
            if self.form.positional:
                value = self._decode_expr(slot.hint, f"items[{i}]", slot.key, slot.form)
                lines.append(f"        a{i} = {value}")
            else:
                if slot.default is not dataclasses.MISSING:
                    absent = self._name(slot.default, "default")
                elif slot.factory is not dataclasses.MISSING:
                    absent = f"{self._name(slot.factory, 'factory')}()"
                else:
                    absent = f"_raise_missing(_what, {slot.key!r})"
                lines.append(f"        if {slot.key!r} in p:")
                lines.append(f"            v = p[{slot.key!r}]")
                value = self._decode_expr(slot.hint, "v", slot.key, slot.form)
                lines.append(f"            a{i} = {value}")
                lines.append("        else:")
                lines.append(f"            a{i} = {absent}")
            args.append(f"{slot.name}=a{i}")
        lines.append(f"        return _cls({', '.join(args)})")
        lines.append("    except ApiError:")
        lines.append("        raise")
        lines.append("    except (ValueError, TypeError, KeyError) as exc:")
        lines.append("        raise _payload_error(_what, exc) from exc")
        return self._compile("\n".join(lines) + "\n", "decode")
