"""Canonical cross-process serialization of feature constraints.

Incremental summaries (:mod:`repro.ide.summaries`) store phase-I edge
functions across processes and runs, and the values of a lifted solve are
:class:`~repro.constraints.bddsystem.BddConstraint` handles — integer
node ids into a manager that only exists in one process.  This module
defines the wire format that makes those handles portable:

- **BDD systems** are encoded *structurally* as a shared node table.
  Every distinct internal node reachable from any root becomes one
  ``[variable index, low ref, high ref]`` row, children before parents,
  with refs ``0`` = false, ``1`` = true, and ``i >= 2`` = table row
  ``i - 2``.  Decoding replays the table bottom-up through
  ``manager.ite``, so the decoded constraint is *canonical in the
  receiving manager's variable order* — sender and receiver need not
  agree on an order, only on variable names.  A batch of roots shares
  one table, so constraints repeated across many (statement, fact)
  entries are encoded and decoded once.

- **Other systems** (the DNF reference backend) fall back to the
  textual formula form, which their ``parse`` already round-trips.

The format is JSON-compatible (plain lists/strings/ints) and therefore
also pickles cheaply across ``multiprocessing`` pipes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.constraints.base import Constraint, ConstraintSystem

__all__ = [
    "CONSTRAINT_CODEC_SCHEMA",
    "ConstraintCodecError",
    "encode_constraints",
    "decode_constraints",
]

CONSTRAINT_CODEC_SCHEMA = "spllift-constraints/v1"

#: Terminal refs of the node-table encoding.
_REF_FALSE = 0
_REF_TRUE = 1
_REF_BASE = 2  # first table row


class ConstraintCodecError(ValueError):
    """A constraint document that cannot be encoded or decoded."""


def encode_constraints(
    system: ConstraintSystem, constraints: Sequence[Constraint]
) -> Dict[str, object]:
    """Encode a batch of constraints of ``system`` as a plain document."""
    if _is_bdd_system(system):
        return _encode_bdd(system, constraints)
    return {
        "schema": CONSTRAINT_CODEC_SCHEMA,
        "codec": "formula",
        "roots": [str(constraint) for constraint in constraints],
    }


def decode_constraints(
    system: ConstraintSystem,
    document: Dict[str, object],
    *,
    require_declared_vars: bool = False,
) -> List[Constraint]:
    """Decode a document produced by :func:`encode_constraints` into
    constraints of ``system``, in root order.

    With ``require_declared_vars`` a BDD document naming a variable the
    receiving manager has not declared raises :class:`ConstraintCodecError`
    instead of silently declaring it.  Callers for whom the variable set
    is part of the contract (e.g. the incremental summary cache, whose
    digests depend on a deterministic variable order) use this to turn a
    stale or foreign document into a controlled miss rather than
    poisoning the manager's order.
    """
    if document.get("schema") != CONSTRAINT_CODEC_SCHEMA:
        raise ConstraintCodecError(
            f"not a constraint document: schema={document.get('schema')!r}"
        )
    codec = document.get("codec")
    if codec == "bdd-nodes":
        return _decode_bdd(system, document, require_declared_vars)
    if codec == "formula":
        return [system.parse(text) for text in document["roots"]]
    raise ConstraintCodecError(f"unknown constraint codec {codec!r}")


# ----------------------------------------------------------------------
# BDD node-table codec
# ----------------------------------------------------------------------


def _is_bdd_system(system: ConstraintSystem) -> bool:
    return hasattr(system, "manager") and hasattr(system, "wrap_node")


def _encode_bdd(system, constraints: Sequence[Constraint]) -> Dict[str, object]:
    manager = system.manager
    var_index: Dict[str, int] = {}
    variables: List[str] = []
    node_ref: Dict[int, int] = {
        manager.false: _REF_FALSE,
        manager.true: _REF_TRUE,
    }
    nodes: List[List[int]] = []
    roots: List[int] = []
    for constraint in constraints:
        root = system.coerce(constraint).node
        if root not in node_ref:
            _encode_reachable(
                manager, root, node_ref, nodes, var_index, variables
            )
        roots.append(node_ref[root])
    return {
        "schema": CONSTRAINT_CODEC_SCHEMA,
        "codec": "bdd-nodes",
        "vars": variables,
        "nodes": nodes,
        "roots": roots,
    }


def _encode_reachable(
    manager, root, node_ref, nodes, var_index, variables
) -> None:
    """Append every not-yet-encoded node under ``root`` to the table,
    children before parents (iterative post-order)."""
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in node_ref:
            continue
        low, high = manager.low(node), manager.high(node)
        if not expanded:
            stack.append((node, True))
            # Low pushed last so it is expanded (and numbered) first —
            # a deterministic order for any given input batch.
            stack.append((high, False))
            stack.append((low, False))
            continue
        name = manager.top_var(node)
        index = var_index.get(name)
        if index is None:
            index = var_index[name] = len(variables)
            variables.append(name)
        nodes.append([index, node_ref[low], node_ref[high]])
        node_ref[node] = len(nodes) - 1 + _REF_BASE


def _decode_bdd(
    system, document: Dict[str, object], require_declared_vars: bool = False
) -> List[Constraint]:
    manager = system.manager
    names = document.get("vars")
    if not isinstance(names, list):
        raise ConstraintCodecError(f"malformed variable table {names!r}")
    if require_declared_vars:
        has_var = getattr(manager, "has_var", None)
        if has_var is None:
            declared = set(manager.variables)
            has_var = declared.__contains__
        unknown = [str(name) for name in names if not has_var(str(name))]
        if unknown:
            raise ConstraintCodecError(
                f"document names undeclared variables {unknown!r}"
            )
    variables = [manager.var(str(name)) for name in names]
    resolved: List[int] = [manager.false, manager.true]
    for row in document["nodes"]:
        try:
            var_idx, low_ref, high_ref = row
            var_node = variables[var_idx]
            low, high = resolved[low_ref], resolved[high_ref]
        except (ValueError, TypeError, IndexError) as error:
            raise ConstraintCodecError(f"malformed node row {row!r}") from error
        # ite(v, high, low) re-canonicalizes under *this* manager's
        # variable order; children always precede parents in the table.
        resolved.append(manager.ite(var_node, high, low))
    try:
        return [system.wrap_node(resolved[ref]) for ref in document["roots"]]
    except IndexError as error:
        raise ConstraintCodecError("root ref out of range") from error
