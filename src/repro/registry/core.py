"""The generic string-keyed component registry.

One :class:`Registry` instance exists per component kind (hardware
configs, scheme recipes, branch predictors, i-cache replacement policies,
prefetchers — see :mod:`repro.registry`).  Components register themselves
by name with the :meth:`Registry.register` decorator at import time;
consumers look them up by name and get did-you-mean suggestions on typos,
the same contract :func:`repro.workloads.get_profile` established.

Registries are *lazily populated*: each one knows which provider modules
contain its built-in registrations and imports them on first lookup, so
``repro.registry`` itself never imports the domain packages (no cycles)
and importing ``repro.registry`` stays free.  Population is
thread-safe: a thread that looks a registry up while another thread is
importing its providers waits for the import to finish.

Every entry carries an integer ``version``.  ``identity(name)`` returns
``"<name>@<version>"``, which the artifact cache folds into its content
keys — bumping a component's registered version invalidates exactly the
cached results that depend on it, without a global schema bump.
"""

from __future__ import annotations

import difflib
import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class RegistryError(KeyError, ValueError):
    """Unknown or conflicting component name.

    Subclasses both ``KeyError`` (the ``get_profile`` lookup contract)
    and ``ValueError`` (the pre-registry scheme ladder raised it), so
    every existing call site keeps catching what it always caught;
    ``str(err)`` carries the did-you-mean hint.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep the text
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: the object plus its cache identity."""

    name: str
    obj: Any
    version: int

    @property
    def identity(self) -> str:
        return f"{self.name}@{self.version}"


class Registry:
    """An insertion-ordered, string-keyed component registry.

    Args:
        kind: human-readable component kind ("scheme", "prefetcher", ...)
            used in error messages and cache identities.
        providers: module names imported lazily before the first lookup;
            they hold the built-in ``@REGISTRY.register(...)`` calls.
    """

    def __init__(self, kind: str,
                 providers: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._providers = providers
        self._entries: Dict[str, RegistryEntry] = {}
        self._loaded = not providers
        self._loading = False
        self._load_lock = threading.RLock()

    # -- population ----------------------------------------------------------

    def _ensure_providers(self) -> None:
        if self._loaded:
            return
        with self._load_lock:
            # ``_loading`` under the lock means *this* thread is mid-import
            # and a provider looked its own registry up; other threads
            # block on the lock until every provider has registered.
            if self._loaded or self._loading:
                return
            self._loading = True
            try:
                for module in self._providers:
                    importlib.import_module(module)
            finally:
                self._loaded = True

    def register(self, name: str, obj: Any = None, *, version: int = 1,
                 overwrite: bool = False) -> Any:
        """Register ``obj`` under ``name`` (usable as a decorator).

        Raises:
            RegistryError: on duplicate names unless ``overwrite=True``
                (catches two plugins colliding, or one module registering
                itself twice on a double import path).
        """

        def _add(target: Any) -> Any:
            if not overwrite and name in self._entries:
                raise RegistryError(
                    f"duplicate {self.kind} registration {name!r} "
                    f"(pass overwrite=True to replace it)"
                )
            self._entries[name] = RegistryEntry(
                name=name, obj=target, version=version,
            )
            return target

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove ``name`` (primarily for tests and scoped overrides)."""
        self._ensure_providers()
        if name not in self._entries:
            raise self._unknown(name)
        del self._entries[name]

    @contextmanager
    def scoped(self, name: str, obj: Any,
               version: int = 1) -> Iterator[Any]:
        """Temporarily register (or override) ``name`` for a ``with`` body.

        The previous entry — or absence — is restored on exit even when
        the body raises, so experiments and tests can inject components
        without leaking state into later lookups.
        """
        self._ensure_providers()
        previous = self._entries.get(name)
        self._entries[name] = RegistryEntry(
            name=name, obj=obj, version=version,
        )
        try:
            yield obj
        finally:
            if previous is None:
                self._entries.pop(name, None)
            else:
                self._entries[name] = previous

    # -- lookup --------------------------------------------------------------

    def _unknown(self, name: str) -> RegistryError:
        matches = difflib.get_close_matches(
            name, list(self._entries), n=3, cutoff=0.6,
        )
        if not matches:
            # Compound names ("zipfian-footprint") dilute whole-string
            # similarity below the cutoff for typos of their head word
            # ("zipfain"); retry against each name's leading token.
            heads = {}
            for known in self._entries:
                heads.setdefault(known.split("-", 1)[0], known)
            matches = [
                heads[token] for token in difflib.get_close_matches(
                    name, list(heads), n=3, cutoff=0.6,
                )
            ]
        hint = ""
        if matches:
            quoted = " or ".join(repr(m) for m in matches)
            hint = f"; did you mean {quoted}?"
        return RegistryError(
            f"unknown {self.kind} {name!r}{hint} "
            f"(known: {sorted(self._entries)})"
        )

    def entry(self, name: str) -> RegistryEntry:
        """The full :class:`RegistryEntry` for ``name``."""
        self._ensure_providers()
        try:
            return self._entries[name]
        except KeyError:
            raise self._unknown(name) from None

    def get(self, name: str) -> Any:
        """The registered object, with did-you-mean on unknown names."""
        return self.entry(name).obj

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call the registered factory/class with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def version(self, name: str) -> int:
        return self.entry(name).version

    def identity(self, name: str) -> str:
        """``"<name>@<version>"`` — the cache-key form of the component."""
        return self.entry(name).identity

    def names(self) -> Tuple[str, ...]:
        """All registered names, in registration order."""
        self._ensure_providers()
        return tuple(self._entries)

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        self._ensure_providers()
        return tuple((name, e.obj) for name, e in self._entries.items())

    def __contains__(self, name: object) -> bool:
        self._ensure_providers()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_providers()
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"Registry(kind={self.kind!r}, "
                f"names={list(self._entries)!r})")
