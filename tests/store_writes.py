"""Seeding weight stores in tests through their one mutator.

Each helper commits its entries as one :class:`StoreDelta` that
advances the store's generation by one per key, as the §5 rules do.
"""

from repro.weights.store import StoreDelta, WeightEntry, WeightState


def commit(store, entries) -> None:
    """Write ``entries`` (key → :class:`WeightEntry`) into ``store``."""
    g = store.generation
    store.apply_delta(StoreDelta(g, g + len(entries), dict(entries)))


def put_known(store, key, value: float) -> None:
    """Give ``key`` the KNOWN weight ``value``."""
    commit(store, {key: WeightEntry(WeightState.KNOWN, float(value))})


def put_infinite(store, key) -> None:
    """Give ``key`` the INFINITE weight A·N."""
    commit(store, {key: WeightEntry(WeightState.INFINITE, store.infinity_value)})


def tombstone(store, *keys) -> None:
    """Drop ``keys`` back to UNKNOWN with tombstone entries."""
    commit(store, {key: WeightEntry(WeightState.UNKNOWN, store.unknown_value) for key in keys})
