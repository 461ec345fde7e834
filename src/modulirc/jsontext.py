"""The JSON text of the CLI's output, written without the json module.

With `indent`, CPython's json runs its pure-Python encoder, and importing it
costs a call more than writing the few values the CLI outputs.  Only
`modulirc.cli._write_json` imports this module, so a CSV or table call
compiles none of it.
"""


def _str(s):
    """`s` as a JSON string; TypeError if `s` is not a str.  Printable ASCII
    with no " or \\ is exactly the str json leaves unescaped; the json module
    is imported only for another str."""
    if str.isascii(s) and str.isprintable(s) and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)


def dumps(obj, ind="\n"):
    """The text `json.dumps(obj, indent=2)` gives, each newline followed by
    `ind[1:]`.  Handles dicts with str keys, lists, tuples, str, int, bool
    and None; raises TypeError on anything else."""
    if obj.__class__ is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    ind += "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pairs = [_str(key) + ": " + dumps(value, ind) for key, value in obj.items()]
        return "{" + ind + ("," + ind).join(pairs) + ind[:-2] + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ind + ("," + ind).join([dumps(value, ind) for value in obj]) + ind[:-2] + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
