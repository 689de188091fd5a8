"""Cache-purity fixtures around the shared cell-identity function.

``cell_identity`` holds the one ENGINE_KWARGS filter; sinks that hand
their kwargs to it whole are clean, anything else is not.
"""

from .approaches import ENGINE_KWARGS


def cell_identity(approach, kind, size, kwargs=()):
    return {
        "approach": approach,
        "kind": kind,
        "size": size,
        "kwargs": sorted(
            (str(k), repr(v)) for k, v in kwargs if str(k) not in ENGINE_KWARGS
        ),
    }


def cell_cache_key(approach, kind, size, kwargs=(), *, code=None):
    # delegation: the filter is cell_identity's, so this sink is clean
    return repr((cell_identity(approach, kind, size, kwargs), code))


def identity_columns(approach, kind, size, kwargs=()):
    identity = cell_identity(approach, kind, size, kwargs)
    # delegates, but also serializes the raw kwargs beside the identity
    return {**identity, "raw": repr(sorted(kwargs))}  # FINDING


def sample_verifies(approach, kind, size, workload, params=()):
    # hands params to cell_identity, but into its unfiltered approach slot
    return cell_identity(params, kind, size)  # FINDING


def injected_identity():
    # engine kwarg literal reaching the shared identity function
    return cell_identity("sabre", "grid", 3, kwargs=[("kernel", "c")])  # FINDING


def injected_through_delegate():
    return cell_cache_key("sabre", "grid", 3, [("kernel", "python")])  # FINDING
