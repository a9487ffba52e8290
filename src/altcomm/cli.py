"""Command-line front end.

Exit codes keep three meanings apart: 0 when every requested check
passes, 1 when a mathematical property fails (the failure always comes
with a witness in the same format the tool accepts as input), 2 for
unusable input or flags.  Inputs are read and refused by the declaration
of their command (reader, generator), so a command body only computes
and reports.  Text output carries no timestamps; JSON output
gets a generated_at envelope field unless --deterministic asks for
byte-identical reruns.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import re

import click

from .algebra import (Algebra, direct_sum, find_unit, is_alternative, load_algebra,
                      read_json, write_json)
from .commuting import (LinearMap, decompose, exhaustive_commuting_check,
                        is_anti_commuting, is_commuting, load_map, random_commuting_map)
from .constructions import cayley_dickson_algebra, cd_dimension, matrix_algebra, zorn
from .errors import (BudgetExceededError, DecompositionError, HypothesisError,
                     NotCommutingError, PreconditionError)
from .fields import PrimeField, RationalField
from .lemmas import run_all
from .peirce import (DEFAULT_BUDGET, check_peirce_relations, hypothesis_check, nucleus,
                     peirce_decompose, prime_check_exhaustive, verify_idempotent)
from .peirce import center as center_of


def _keep_setting(ctx, param, value):
    ctx.meta[param.name] = value


def common_options(fn):
    """--format and --deterministic, read by emit and not passed to the command."""
    fn = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                      default="text", show_default=True, expose_value=False,
                      callback=_keep_setting, help="Report format.")(fn)
    fn = click.option("--deterministic", is_flag=True, expose_value=False,
                      callback=_keep_setting,
                      help="Omit the generated_at envelope field from JSON output.")(fn)
    return fn


seed_option = click.option("--seed", type=int, default=0, show_default=True,
                           help="Seed for --map random.")
budget_option = click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
                             help="Cap on exhaustive enumeration size.")
idempotent_option = click.option("-e", "--idempotent", "idem_token", required=True,
                                 help="Idempotent: coords file, basis label, or inline scalars.")
map_option = click.option("--map", "map_token", required=True,
                          help="Map file, or 'random' for a seeded commuting map.")
field_option = click.option("--field", "field_token", default="q", show_default=True,
                            help="Scalar field: q or p<prime>.")
out_option = click.option("--out", type=click.Path(), default=None,
                          help="Output path (defaults to a name derived from the algebra).")
# An algebra file read as its option is processed; the command gets the Algebra.
summand_option = functools.partial(click.option, type=click.Path(exists=True), required=True,
                                   callback=lambda ctx, param, path: load_algebra_arg(path))


def emit(command: str, payload: dict, lines: list[str], ok: bool = True) -> None:
    """Print a report in the running command's --format, then exit 0, or 1 when not ok.

    The one place a command's exit code is decided: usage errors exit 2
    through click.UsageError before anything is emitted.
    """
    ctx = click.get_current_context()
    if ctx.meta["fmt"] == "json":
        envelope = {"command": command, "report": payload}
        if not ctx.meta["deterministic"]:
            from datetime import datetime, timezone
            envelope["generated_at"] = datetime.now(timezone.utc).isoformat()
        click.echo(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)
    ctx.exit(0 if ok else 1)


def parse_field(token: str):
    token = token.strip().lower()
    if token == "q":
        return RationalField()
    m = re.fullmatch(r"p(\d+)", token)
    if m:
        try:
            return PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown field {token!r}; use q or p<prime>, e.g. p5")


def load_algebra_arg(path: str) -> Algebra:
    try:
        return load_algebra(path)
    except OSError as exc:
        raise click.UsageError(f"cannot read algebra file: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad algebra file {path}: {exc}")


def parse_element(algebra: Algebra, token: str):
    """An element given as a coords file, a basis label, or inline scalars."""
    if os.path.exists(token):
        try:
            raw = read_json(token)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot read element file {token}: {exc}")
        coords = raw.get("coords") if isinstance(raw, dict) else raw
        if not isinstance(coords, list):
            raise click.UsageError(f"element file {token} must hold a coords list")
        token_list = [str(c) for c in coords]
    elif token in algebra.basis_labels:
        return algebra.basis_element(algebra.label_index(token))
    else:
        token_list = token.split(",")
    if len(token_list) != algebra.dim:
        raise click.UsageError(
            f"element needs {algebra.dim} coordinates, got {len(token_list)}")
    try:
        coords = [algebra.field.parse(t) for t in token_list]
    except ValueError as exc:
        raise click.UsageError(f"bad element coordinate: {exc}")
    return algebra.element(coords)


def idempotent_arg(algebra: Algebra, token: str):
    """-e parsed, and refused unless it is a nontrivial idempotent of a unital algebra."""
    e1 = parse_element(algebra, token)
    try:
        ok = verify_idempotent(algebra, e1)
    except PreconditionError as exc:
        raise click.UsageError(str(exc))
    if not ok:
        raise click.UsageError(
            f"{element_str(e1)} is not a nontrivial idempotent of this algebra")
    return e1


def load_map_arg(algebra: Algebra, token: str, seed: int) -> LinearMap:
    if token == "random":
        return random_commuting_map(algebra, seed)
    if not os.path.exists(token):
        raise click.UsageError(f"map file not found: {token} (or pass --map random)")
    try:
        return load_map(algebra, token)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad map file {token}: {exc}")


def element_str(el) -> str:
    return ",".join(el.to_strings())


def witness_lines(witness: dict) -> list[str]:
    out = []
    for key, value in witness.items():
        if isinstance(value, list) and value and isinstance(value[0], str):
            value = ",".join(value)
        elif isinstance(value, list):
            value = " | ".join(",".join(v) for v in value)
        out.append(f"  witness {key}: {value}")
    return out


def guarded_peirce(algebra: Algebra, e1):
    """Peirce data at an idempotent the reader accepted, or the refused split emitted, exit 1."""
    try:
        return peirce_decompose(algebra, e1)
    except PreconditionError as exc:
        emit(click.get_current_context().info_name, {"error": str(exc)}, [f"FAIL: {exc}"],
             ok=False)


@click.group()
def main():
    """Exact computations in finite-dimensional alternative algebras."""


def declare(group, name: str, fn, options):
    """Register fn as a command of group with its parameters, given in declaration order."""
    for option in reversed(options):
        fn = option(fn)
    return group.command(name)(fn)


def reader(name: str, *options):
    """Declare a command on one algebra file: the path, the command's options, the common ones.

    Every input is read here, and each one that cannot be used exits 2
    here, so the body only computes and reports.  It gets the Algebra in
    place of the path, e1 in place of -e (parsed and checked by
    idempotent_arg) and phi in place of --map and --seed; other options
    (--budget) pass through.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def run(algebra_path, idem_token=None, map_token=None, seed=0, **rest):
            algebra = load_algebra_arg(algebra_path)
            if idem_token is not None:
                rest["e1"] = idempotent_arg(algebra, idem_token)
            if map_token is not None:
                rest["phi"] = load_map_arg(algebra, map_token, seed)
            fn(algebra, **rest)
        algebra_arg = click.argument("algebra_path", type=click.Path(exists=True))
        return declare(main, name, run, [algebra_arg, *options, common_options])
    return wrap


# ----------------------------------------------------------------------
# generation


def default_out(algebra: Algebra) -> str:
    # keep minus signs visible so CD2(Q;-1,-1) and CD2(Q;1,1) get distinct files
    slug = algebra.name.lower().replace("-", "m")
    return re.sub(r"[^a-z0-9]+", "", slug) + ".json"


def write_generated(algebra: Algebra, idem, out: str | None) -> None:
    """Write the algebra and its idempotent, if any; an unwritable path exits 2.

    Each file is written to a temporary sibling (the target's name plus
    the process id), and a target that is a directory is refused; both
    files are moved into place only once both writes have succeeded.  A
    refusal removes the temporary files, so it creates no file and leaves
    every file that existed before the call as it was.
    """
    path = out or default_out(algebra)
    idem_path = None if idem is None else os.path.splitext(path)[0] + ".idem.json"
    docs = {path: algebra.to_dict()}
    if idem_path:
        docs[idem_path] = {"coords": idem.to_strings()}
    staged = {target: f"{target}.{os.getpid()}.tmp" for target in docs}
    try:
        for target, doc in docs.items():
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            write_json(staged[target], doc)
        for target, tmp in staged.items():
            os.replace(tmp, target)
    except OSError as exc:
        for tmp in filter(os.path.lexists, staged.values()):
            os.remove(tmp)
        raise click.UsageError(f"cannot write output file {target}: {exc.strerror}")
    payload = {"algebra": path, "idempotent": idem_path,
               "dim": algebra.dim, "field": algebra.field.label, "name": algebra.name}
    lines = [f"wrote {path} ({algebra.name}, dim {algebra.dim})"]
    if idem_path:
        lines.append(f"wrote {idem_path} (idempotent {element_str(idem)})")
    emit("gen", payload, lines)


@main.group()
def gen():
    """Write a builtin algebra (and its canonical idempotent) to JSON files."""


def generator(name: str, *options):
    """Declare a gen command: its options, --out and the common ones.

    The body gets the parsed field in place of --field and returns
    (algebra, idempotent or None).  A ValueError from the builder exits 2,
    and write_generated writes the files and reports them.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def run(out, field_token=None, **rest):
            if field_token is not None:
                rest["field"] = parse_field(field_token)
            try:
                algebra, idem = fn(**rest)
            except ValueError as exc:
                raise click.UsageError(str(exc))
            write_generated(algebra, idem, out)
        return declare(gen, name, run, [*options, out_option, common_options])
    return wrap


@generator("matrix", click.option("--n", type=int, default=2, show_default=True,
                                  help="Matrix size."), field_option)
def gen_matrix(n, field):
    return matrix_algebra(field, n)


@generator("zorn", field_option)
def gen_zorn(field):
    return zorn(field)


@generator("cayley-dickson",
           click.option("--steps", type=int, required=True, help="Number of doublings."),
           click.option("--gammas", default=None,
                        help="Comma-separated doubling parameters, one per step (default all 1)."),
           field_option)
def gen_cd(steps, gammas, field):
    if steps < 1:
        raise click.UsageError("--steps must be at least 1")
    cd_dimension(steps)                 # refused before a list of steps is built
    if gammas is None:
        return cayley_dickson_algebra(field, [field.one] * steps)
    try:
        gamma_list = [field.parse(g) for g in gammas.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"bad --gammas: {exc}")
    if len(gamma_list) != steps:
        raise click.UsageError("--gammas must list one value per step")
    return cayley_dickson_algebra(field, gamma_list)


@generator("direct-sum", summand_option("--left", help="Algebra file for the first summand."),
           summand_option("--right", help="Algebra file for the second summand."))
def gen_direct_sum(left, right):
    algebra = direct_sum(left, right)
    idem = None
    if left.unit is not None:
        idem = algebra.element(list(left.unit.coords) + [right.field.zero] * right.dim)
    return algebra, idem


# ----------------------------------------------------------------------
# verification


@reader("verify")
def verify(algebra):
    """Check alternativity and the existence of a unit."""
    alt, triple = is_alternative(algebra)
    unit = find_unit(algebra)
    payload = {"name": algebra.name, "alternative": alt, "unital": unit is not None}
    lines = [f"algebra {algebra.name} (dim {algebra.dim} over {algebra.field.label})"]
    if alt:
        lines.append("alternative: yes")
    else:
        payload["witness"] = {"triple": [element_str(t) for t in triple]}
        lines.append("alternative: NO")
        lines.append(f"  witness triple: ({' ; '.join(element_str(t) for t in triple)})")
    if unit is not None:
        payload["unit"] = element_str(unit)
        lines.append(f"unital: yes, unit = {element_str(unit)}")
    else:
        lines.append("unital: NO (no two-sided unit exists)")
    emit("verify", payload, lines, ok=alt and unit is not None)


def subspace_report(word: str, subspace_of, algebra: Algebra) -> None:
    """Report the basis of one subspace of an algebra, e.g. its center."""
    space = subspace_of(algebra)
    payload = {"name": algebra.name, "dim": space.dim,
               "basis": [el.to_strings() for el in space.basis]}
    lines = [f"{word} of {algebra.name}: dimension {space.dim}"]
    lines += [f"  {element_str(el)}" for el in space.basis]
    emit(word, payload, lines)


@reader("center")
def center(algebra):
    """Print a basis of the commutant {x : [x, A] = 0}.

    On alternative inputs over Q and F_p (p >= 5) the commutant is the
    center; on other inputs it can be larger.
    """
    subspace_report("center", center_of, algebra)


@reader("nucleus")
def nucleus_cmd(algebra):
    """Print a basis of the nucleus."""
    subspace_report("nucleus", nucleus, algebra)


@reader("peirce", idempotent_option)
def peirce(algebra, e1):
    """Split along an idempotent and verify the component multiplication rules."""
    pd = guarded_peirce(algebra, e1)
    report = check_peirce_relations(pd)
    dims = pd.dims()
    payload = {"name": algebra.name, "dims": list(dims), "relations": report}
    lines = [f"Peirce split of {algebra.name} at e1 = {element_str(e1)}",
             f"component dimensions (r11, r12, r21, r22) = {dims}"]
    for entry in report:
        lines.append(f"  {entry['check']}: {'ok' if entry['pass'] else 'FAIL'}")
        if not entry["pass"]:
            lines += witness_lines(entry["witness"])
    passed = sum(entry["pass"] for entry in report)
    lines.append(f"relations: {passed}/{len(report)} ok")
    emit("peirce", payload, lines, ok=passed == len(report))


@reader("hypothesis", idempotent_option)
def hypothesis(algebra, e1):
    """Check the regularity condition at e1 and its complement."""
    (ok1, w1), (ok2, w2) = hypothesis_check(algebra, e1)
    payload = {"name": algebra.name, "e1": ok1, "e2": ok2}
    lines = [f"regularity of {algebra.name} at e1 = {element_str(e1)}"]
    for label, ok, w in (("e1", ok1, w1), ("e2", ok2, w2)):
        if ok:
            lines.append(f"  {label}: holds")
        else:
            payload[f"witness_{label}"] = w.to_strings()
            lines.append(f"  {label}: FAILS, witness {element_str(w)}")
    emit("hypothesis", payload, lines, ok=ok1 and ok2)


@reader("prime", budget_option)
def prime(algebra, budget):
    """Exhaustively search a finite-field algebra for an annihilating pair."""
    try:
        ok, pair = prime_check_exhaustive(algebra, budget=budget)
    except (ValueError, BudgetExceededError) as exc:
        raise click.UsageError(str(exc))
    payload = {"name": algebra.name, "prime": ok}
    if ok:
        lines = [f"{algebra.name}: prime (no nonzero pair with (a x) b = 0 everywhere)"]
    else:
        a, b = pair
        payload["witness"] = {"a": a.to_strings(), "b": b.to_strings()}
        lines = [f"{algebra.name}: NOT prime",
                 f"  witness a = {element_str(a)}, b = {element_str(b)}"]
    emit("prime", payload, lines, ok=ok)


# ----------------------------------------------------------------------
# maps


@reader("check-map", map_option, seed_option)
def check_map(algebra, phi):
    """Test whether a linear map commutes (and anti-commutes) with its argument."""
    ok, pair = is_commuting(algebra, phi)
    anti, anti_pair = is_anti_commuting(algebra, phi)
    payload = {"name": algebra.name, "commuting": ok, "anti_commuting": anti}
    lines = []
    if ok:
        lines.append("commuting: yes")
    else:
        payload["witness"] = {"x": pair[0].to_strings(), "y": pair[1].to_strings()}
        lines.append("commuting: NO")
        lines.append(f"  witness x = {element_str(pair[0])}, y = {element_str(pair[1])}")
    lines.append(f"anti-commuting: {'yes' if anti else 'no'}")
    emit("check-map", payload, lines, ok=ok)


@reader("decompose", idempotent_option, map_option, seed_option)
def decompose_cmd(algebra, e1, phi):
    """Split a commuting map as phi(x) = z x + xi(x) with z central, xi center-valued."""
    pd = guarded_peirce(algebra, e1)
    try:
        dec = decompose(pd, phi)
    except NotCommutingError as exc:
        x, y = exc.witness
        emit("decompose",
             {"error": "not commuting",
              "witness": {"x": x.to_strings(), "y": y.to_strings()}},
             ["FAIL: the map is not commuting",
              f"  witness x = {element_str(x)}, y = {element_str(y)}"], ok=False)
    except (HypothesisError, DecompositionError) as exc:
        w = exc.witness
        lines = [f"FAIL: {exc}"]
        payload = {"error": str(exc)}
        if w is not None:
            payload["witness"] = w.to_strings()
            lines.append(f"  witness {element_str(w)}")
        emit("decompose", payload, lines, ok=False)
    payload = dec.to_dict()
    payload["name"] = algebra.name
    lines = [f"z  = {element_str(dec.z)}",
             f"z1 = {element_str(dec.z1)}",
             f"z2 = {element_str(dec.z2)}",
             "xi matrix rows:"]
    lines += ["  " + ",".join(algebra.field.fmt(v) for v in row)
              for row in dec.xi.matrix.data]
    lines.append(f"verified: {dec.verified}")
    emit("decompose", payload, lines)


@reader("lemmas", idempotent_option, map_option, seed_option)
def lemmas_cmd(algebra, e1, phi):
    """Run the nine supporting checks and print a table."""
    pd = guarded_peirce(algebra, e1)
    reports = run_all(pd, phi)
    marks = {"pass": "✓", "fail": "✗", "not-applicable": "n-a"}
    payload = {"name": algebra.name, "lemmas": [r.to_dict() for r in reports]}
    lines = []
    for r in reports:
        lines.append(f"{r.lemma_id:3} {marks[r.status]:3} {r.notes}")
        if r.witness:
            lines += witness_lines(r.witness)
    passed = sum(r.status == "pass" for r in reports)
    lines.append(f"{passed}/{len(reports)} passed")
    emit("lemmas", payload, lines, ok=passed == len(reports))


@reader("oracle", map_option, seed_option, budget_option)
def oracle(algebra, phi, budget):
    """Check [phi(x), x] = 0 on every element of a finite-field algebra."""
    try:
        ok, x = exhaustive_commuting_check(algebra, phi, budget=budget)
    except (ValueError, BudgetExceededError) as exc:
        raise click.UsageError(str(exc))
    payload = {"name": algebra.name, "commuting_everywhere": ok}
    if ok:
        lines = [f"[phi(x), x] = 0 for all {algebra.field.p ** algebra.dim} elements"]
    else:
        payload["witness"] = x.to_strings()
        lines = ["found a violating element",
                 f"  witness x = {element_str(x)}"]
    emit("oracle", payload, lines, ok=ok)


if __name__ == "__main__":
    main()
