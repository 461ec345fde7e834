"""Output checks for one CLI call.

Every invariant here is derived from the mathematics, not from the code
under test: h = gcd(r, d), the expected dimension 2hk + (r^2 - 1)(g - 1),
the Segre bound r'(r - r')(g - 1) and the published connecting-degree
closed form are recomputed from the argv alone.
"""

import csv
import io
import json
from math import gcd

SWEEP_COLUMNS = ["k", "unobstructedExt", "unobstructedTorsion",
                 "obstructedExpected", "obstructedCandidate", "notComponent",
                 "expectedDim", "minDim", "maxDim", "flags"]
KINDS = ("UNOBSTRUCTED_EXT", "UNOBSTRUCTED_TORSION", "OBSTRUCTED_EXPECTED",
         "OBSTRUCTED_CANDIDATE", "NOT_COMPONENT")
EXPECTED_DIM_KINDS = KINDS[:3]


def parse_argv(argv):
    """(command, {flag: value}) from a generated argv; switches map to True."""
    command, flags, i = argv[0], {}, 1
    while i < len(argv):
        name = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            flags[name] = int(value) if value.lstrip("-").isdigit() else value
            i += 2
        else:
            flags[name] = True
            i += 1
    return command, flags


def _expected_dim(g, r, d, k):
    return 2 * gcd(r, d) * k + (r * r - 1) * (g - 1)


def _check_classify_json(f, text):
    data = json.loads(text)
    res = data["results"]
    g, r, d, k = f["g"], f["r"], f["d"], f["k"]
    h, exp = gcd(r, d), _expected_dim(g, r, d, k)
    descs = res["descriptors"]
    problems = []
    if data["command"] != "classify" or data["inputs"]["k"] != k:
        problems.append("envelope does not echo the call")
    n_unob = sum(x["kind"].startswith("UNOBSTRUCTED_") for x in descs)
    if n_unob != h:
        problems.append(f"{n_unob} unobstructed descriptors, want h = {h}")
    for x in descs:
        if x["expectedDim"] != exp:
            problems.append(f"expectedDim {x['expectedDim']} != {exp}")
        if x["kind"] in EXPECTED_DIM_KINDS and x["dimension"] != exp:
            problems.append(f"{x['kind']} has dimension {x['dimension']} != {exp}")
        if x["k"] != k:
            problems.append(f"descriptor degree {x['k']} != {k}")
    counts = {kind: sum(x["kind"] == kind for x in descs) for kind in KINDS}
    counts["EXPECTED_DIM_COMPONENTS"] = sum(counts[kind] for kind in EXPECTED_DIM_KINDS)
    if res["totals"] != counts:
        problems.append(f"totals {res['totals']} do not match descriptors {counts}")
    if f.get("include_candidates") and "candidateSearch" not in res:
        problems.append("candidate search requested but not reported")
    return problems


def _check_classify_table(f, text):
    g, r, d, k = f["g"], f["r"], f["d"], f["k"]
    h, exp = gcd(r, d), _expected_dim(g, r, d, k)
    lines = text.splitlines()
    problems = []
    head = f"(g, r, d, k) = ({g}, {r}, {d}, {k})   h = {h}, "
    if not lines or not lines[0].startswith(head) \
            or not lines[0].endswith(f"expected dim = {exp}"):
        problems.append(f"header {lines[:1]} does not match {head}... {exp}")
    rows = [line.split() for line in lines[1:]
            if line.startswith("  ") and line.split()[0] in KINDS]
    n_unob = sum(row[0].startswith("UNOBSTRUCTED_") for row in rows)
    if n_unob != h:
        problems.append(f"{n_unob} unobstructed rows, want h = {h}")
    for row in rows:
        # "<kind> dim <n> (expected <e>) ..."
        dim, want = int(row[2]), int(row[4].rstrip(")"))
        if want != exp or (row[0] in EXPECTED_DIM_KINDS and dim != exp):
            problems.append(f"row {' '.join(row[:5])} breaks expected dim {exp}")
    return problems


def _check_sweep_csv(f, text):
    g, r, d = f["g"], f["r"], f["d"]
    h = gcd(r, d)
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if not text.startswith(",".join(SWEEP_COLUMNS) + "\n"):
        problems.append("CSV header differs")
    ks = [int(row["k"]) for row in rows]
    if ks != list(range(f["k_min"], f["k_max"] + 1)):
        problems.append(f"rows cover k {ks[:1]}..{ks[-1:]}, want one per k in "
                        f"[{f['k_min']}, {f['k_max']}]")
    for row in rows:
        k = int(row["k"])
        exp = _expected_dim(g, r, d, k)
        if int(row["unobstructedExt"]) + int(row["unobstructedTorsion"]) != h:
            problems.append(f"k={k}: unobstructed count != h = {h}")
        if int(row["expectedDim"]) != exp:
            problems.append(f"k={k}: expectedDim {row['expectedDim']} != {exp}")
        if not int(row["minDim"]) <= exp <= int(row["maxDim"]):
            problems.append(f"k={k}: expected dim {exp} outside [minDim, maxDim]")
    return problems


def _check_verify(f, text):
    data = json.loads(text)
    reports = {rep["suiteName"]: rep for rep in data["results"]["reports"]}
    problems = []
    if data["results"]["allExpectedPass"] is not True:
        problems.append("allExpectedPass is not true")
    for name, rep in reports.items():
        if rep["trials"] < 1:
            problems.append(f"{name} ran no trials")
        if name != "three_term_printed" and (rep["failures"] or not rep["pass"]):
            problems.append(f"{name} failed {rep['failures']} trials")
    if f.get("suite", "all") in ("all", "identities"):
        printed = reports.get("three_term_printed")
        if printed is None or printed["failures"] < 1:
            problems.append("three_term_printed shows no counterexample")
    if not reports:
        problems.append("no suite ran")
    return problems


def _check_connect(f, text):
    data = json.loads(text)
    res = data["results"]
    g, r = f["g"], f["r"]
    closed = (r * r // 2 - 1) * (g - 1) if r % 2 == 0 else 3 * (r * r - 1) // 2 * (g - 1)
    problems = []
    if res["mismatch"] != (res["derivedK"] != res["closedFormK"]):
        problems.append("mismatch flag disagrees with derivedK != closedFormK")
    if res["closedFormK"] != closed:
        problems.append(f"closedFormK {res['closedFormK']} != {closed}")
    if res["mismatch"] != bool(data["warnings"]):
        problems.append("mismatch is not reported as a warning")
    return problems


def _check_segre(f, text):
    data = json.loads(text)
    g, r, d = f["g"], f["r"], f["d"]
    table = data["results"]["table"]
    problems = []
    want = [f["r_prime"]] if "r_prime" in f else list(range(1, r))
    if [row["rPrime"] for row in table] != want:
        problems.append("table does not list the requested r'")
    for row in table:
        rp, s_gen = row["rPrime"], row["genericS"]
        bound = rp * (r - rp) * (g - 1)
        if not (bound <= s_gen < bound + r and (s_gen - rp * d) % r == 0):
            problems.append(f"r'={rp}: genericS {s_gen} outside its residue window")
        ss = [st["s"] for st in row["strata"]]
        if not ss or ss[-1] != s_gen or any(b - a != r for a, b in zip(ss, ss[1:])):
            problems.append(f"r'={rp}: strata do not step by r up to genericS")
        for st in row["strata"]:
            if st["codim"] != max(bound - st["s"], 0):
                problems.append(f"r'={rp}, s={st['s']}: codim {st['codim']} wrong")
    return problems


def check(argv, returncode, text):
    """Problems found with one call's exit code and stdout; [] means correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    command, f = parse_argv(argv)
    try:
        if command == "classify":
            if f.get("format") == "json":
                return _check_classify_json(f, text)
            return _check_classify_table(f, text)
        if command == "sweep":
            return _check_sweep_csv(f, text)
        checker = {"verify": _check_verify, "connect": _check_connect,
                   "segre": _check_segre}[command]
        return checker(f, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
