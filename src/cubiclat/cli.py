"""Command-line front end: run certificates, inspect lattices, run sweeps.

``checks run``, ``hassett sweep`` and ``delpezzo verify`` print their reports
through ``_emit_reports``, as JSON lines with --json or as status lines.
Exit codes: 0 when everything requested passed, 1 when any certificate
failed, 2 for usage errors (unknown check ids, unresolvable targets, parse
failures).
"""
from __future__ import annotations

import json
import os
import sys

import click

from . import catalog, checks, delpezzo, geomchecks, hassett
from .core import (MAX_RANK, IntegralLattice, LatticeError, TooLarge,
                   UnknownLattice, basic_invariants)
from .report import CheckReport, jsonable
from .shortvec import enumerate_by_norm, root_count


@click.group()
def main():
    """Exact integral-lattice toolkit and certificate suite."""


@main.group("checks")
def checks_group():
    """List and run the scripted certificates."""


@checks_group.command("list")
def checks_list():
    """Print every check id with its one-line summary."""
    for check_id, run in checks.REGISTRY.items():
        click.echo(f"{check_id:24s}{run.summary}")


def _emit_reports(reports: list[CheckReport], as_json: bool) -> int:
    failed = [r for r in reports if not r.ok]
    if as_json:
        for r in reports:
            click.echo(json.dumps(r.to_json(), sort_keys=True))
    else:
        for r in reports:
            click.echo(f"{r.status:4s} {r.check_id:24s}{r.elapsed_ms:>8d} ms  "
                       f"{r.claim}")
            if not r.ok:
                click.echo(f"     details: {jsonable(r.details)}")
        noun = "check" if len(reports) == 1 else "checks"
        click.echo(f"{len(reports)} {noun}: {len(reports) - len(failed)} "
                   f"passed, {len(failed)} failed")
    return 1 if failed else 0


@checks_group.command("run")
@click.option("--all", "run_all", is_flag=True, help="Run every check.")
@click.option("--name", "names", multiple=True, metavar="ID",
              help="Run one check id (repeatable).")
@click.option("--json", "as_json", is_flag=True,
              help="One JSON report per line, ordered by check id.")
def checks_run(run_all: bool, names: tuple[str, ...], as_json: bool):
    """Run selected certificates and exit 0 only if all pass."""
    if run_all == bool(names):
        raise click.UsageError("select checks with either --all or --name <id>")
    try:
        reports = checks.run_checks(None if run_all else list(names))
    except checks.UnknownCheck as exc:
        raise click.UsageError(str(exc))
    sys.exit(_emit_reports(reports, as_json))


@main.group("lat")
def lat_group():
    """Inspect catalog lattices and JSON lattice files."""


def lattice_from_json(text: str) -> IntegralLattice:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    for key in ("labels", "gram"):
        if key not in data:
            raise ValueError(f"missing required key {key!r}")
    gram = data["gram"]
    if (not isinstance(gram, list)
            or any(not isinstance(row, list) for row in gram)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for row in gram for x in row)):
        raise ValueError("gram must be a matrix of integers")
    if len(gram) > MAX_RANK:
        raise TooLarge(f"rank {len(gram)} is above the limit {MAX_RANK}")
    if not gram:
        raise ValueError("gram must have at least one row (rank 0 is not a lattice)")
    labels = data["labels"]
    if not isinstance(labels, list) or any(not isinstance(s, str) for s in labels):
        raise ValueError("labels must be a list of strings")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("name must be a string")
    return IntegralLattice(gram, labels=labels, name=name or None)


def _resolve_target(target: str) -> IntegralLattice:
    try:
        return catalog.resolve(target)
    except UnknownLattice as exc:
        if not os.path.exists(target):
            raise click.UsageError(str(exc))
    except (ValueError, LatticeError) as exc:
        raise click.UsageError(f"{target}: {exc}")
    try:
        with open(target, encoding="utf-8") as fh:
            return lattice_from_json(fh.read())
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"{target}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    except (ValueError, LatticeError) as exc:
        raise click.UsageError(f"{target}: {exc}")
    except OSError as exc:
        raise click.UsageError(f"{target}: cannot read: {exc.strerror}")
    except RecursionError:
        raise click.UsageError(f"{target}: JSON nested too deeply")


def _eta_vector(L: IntegralLattice) -> tuple[int, ...]:
    if "eta" not in L.labels:
        raise click.UsageError(
            "target has no basis vector labeled 'eta'; plane enumeration "
            "needs a distinguished norm-3 class")
    i = L.labels.index("eta")
    return tuple(int(j == i) for j in range(L.rank))


@lat_group.command("show")
@click.argument("target")
@click.option("--invariants", is_flag=True, help="Determinant, signature, parity.")
@click.option("--disc", is_flag=True, help="Discriminant group and bilinear form.")
@click.option("--roots", type=click.IntRange(min=0), default=None, metavar="N",
              help="Count vectors of norm N (-N if negative definite).")
@click.option("--vectors", type=click.IntRange(min=0), default=None,
              metavar="N", help="List all vectors with |norm| up to N.")
@click.option("--planes", is_flag=True, help="Enumerate norm-3 degree-1 classes.")
def lat_show(target: str, invariants: bool, disc: bool, roots: int | None,
             vectors: int | None, planes: bool):
    """Show a lattice from the catalog (N, M, T, K3, E8(2), ...) or a file."""
    L = _resolve_target(target)
    click.echo(f"{L.name or target}  rank {L.rank}  "
               f"basis ({', '.join(L.labels)})")
    for label, row in zip(L.labels, L.gram):
        click.echo(f"  {label:>6s}  " + " ".join(f"{x:>4d}" for x in row))
    try:
        if invariants:
            inv = basic_invariants(L)
            click.echo(f"det {inv.determinant}  signature "
                       f"{tuple(inv.signature)}  {inv.parity}")
        if disc:
            form = L.disc_form
            click.echo(f"discriminant group invariant factors: "
                       f"{list(form.factors) or 'trivial'}")
            if form.factors:
                for grow in form.bilinear_matrix():
                    click.echo("  " + "  ".join(str(x) for x in grow))
        if roots is not None:
            norm = -roots if L.signature.negative else roots
            click.echo(f"vectors of norm {norm}: {root_count(L, norm)}")
        if vectors is not None:
            for piece in enumerate_by_norm(L, vectors):
                norm = -piece.norm if piece.negated else piece.norm
                click.echo(f"norm {norm} ({len(piece.vectors)}):")
                for v in piece.vectors:
                    click.echo("  " + " ".join(str(x) for x in v))
        if planes:
            found = geomchecks.enumerate_planes(L, _eta_vector(L))
            click.echo(f"plane classes: {len(found)}")
            for p in found:
                click.echo("  " + " ".join(str(x) for x in p))
    except (ValueError, LatticeError) as exc:
        raise click.UsageError(str(exc))


@main.group("hassett")
def hassett_group():
    """Discriminant sweeps over the Hassett divisor labels."""


@hassett_group.command("sweep")
@click.option("--dmax", type=click.IntRange(min=8), required=True,
              metavar="N", help="Upper bound on the discriminant (8 or more).")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
def hassett_sweep_cmd(dmax: int, as_json: bool):
    """Label every admissible discriminant up to --dmax and verify it."""
    sys.exit(_emit_reports([hassett.hassett_sweep(dmax)], as_json))


@main.group("delpezzo")
def delpezzo_group():
    """Cubic-surface line combinatorics."""


@delpezzo_group.command("verify")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
def delpezzo_verify(as_json: bool):
    """Check the 27/72/36 counts and the intersection table by brute force."""
    sys.exit(_emit_reports([delpezzo.intersection_lemma_verify()], as_json))
