"""The one ``name(arg, key=value, ...)`` grammar behind every spec string.

Scheme specs (``semi-oblivious(racke, alpha=4)``), scenario axis entries
(``torus(4)``, ``gravity(total=20)``, ``regional(radius=1)``) and stream
policies (``periodic(k=8)``) all parse through :func:`parse_call`.  Each
caller maps the positional arguments onto its own parameters and raises
its own error type.

Grammar: a name (a letter or ``_``, then letters, digits, ``_.+-``),
optionally followed by a parenthesized argument list split on top-level
commas (quotes and nested brackets are respected).  Positional arguments
come first, then ``key=value`` ones.  Values parse as a quoted string
(``'a,b'``, verbatim without its quotes); ``true``/``yes``/``on`` and
``false``/``no``/``off`` as booleans; ``none``/``null`` as ``None``;
then int, then float; anything else is the bare string.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple, Type

from repro.exceptions import ReproError

_CALL_RE = re.compile(r"^([A-Za-z_][\w.+\-]*)\s*(?:\((.*)\))?$", re.DOTALL)
_KEYWORD_RE = re.compile(r"^([A-Za-z_]\w*)\s*=(.*)$", re.DOTALL)


def _parse_value(token: str) -> Any:
    """One argument value under the grammar's value rules."""
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    lowered = token.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_args(body: str) -> List[str]:
    """Split an argument list on top-level commas (quote- and bracket-aware).

    Raises :class:`ValueError` on an unterminated quote or unbalanced
    brackets.
    """
    parts: List[str] = []
    depth = 0
    quote = None
    current = ""
    for char in body:
        if quote is not None:
            current += char
            if char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
        elif char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if quote is not None:
        raise ValueError("unterminated quote")
    if depth:
        raise ValueError("unbalanced parentheses")
    parts.append(current)
    return [part.strip() for part in parts if part.strip()]


def parse_call(
    text: str, error: Type[ReproError] = ReproError, what: str = "spec"
) -> Tuple[str, List[Any], Dict[str, Any]]:
    """Parse ``name`` or ``name(arg, ..., key=value, ...)``.

    Returns ``(name, positional, keywords)``.  A malformed string raises
    ``error`` (the caller's exception type), naming ``what`` was parsed.
    """
    match = _CALL_RE.match(text.strip())
    if not match:
        raise error(f"malformed {what} spec {text!r}")
    name, body = match.group(1), match.group(2)
    try:
        tokens = _split_args(body or "")
    except ValueError as problem:
        raise error(f"malformed {what} spec {text!r}: {problem}") from None
    positional: List[Any] = []
    keywords: Dict[str, Any] = {}
    for token in tokens:
        keyword = _KEYWORD_RE.match(token)
        if keyword:
            if not keyword.group(2).strip():
                raise error(f"malformed {what} spec {text!r}: no value for {keyword.group(1)!r}")
            keywords[keyword.group(1)] = _parse_value(keyword.group(2))
        elif token.startswith("="):
            raise error(f"malformed {what} spec {text!r}: argument {token!r} has no key")
        elif keywords:
            raise error(
                f"malformed {what} spec {text!r}: positional {token!r} follows a key=value argument"
            )
        else:
            positional.append(_parse_value(token))
    return name, positional, keywords


__all__ = ["parse_call"]
