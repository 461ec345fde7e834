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


def _put(obj, ind, out, fh):
    """Append to `out` the text `json.dumps(obj, indent=2)` gives, each
    newline followed by `ind[1:]`; an iterator is a list, after each of whose
    items `out` is written to `fh` and cleared."""
    if obj.__class__ is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, dict):
        ind += "  "
        sep, comma = "{" + ind, "," + ind
        for key, value in obj.items():
            out.append(sep + _str(key) + ": ")
            _put(value, ind, out, fh)
            sep = comma
        out.append("{}" if sep[0] == "{" else ind[:-2] + "}")
    else:
        streams = hasattr(obj, "__next__")
        if not streams and not isinstance(obj, (list, tuple)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        ind += "  "
        sep, comma = "[" + ind, "," + ind
        for value in obj:
            out.append(sep)
            _put(value, ind, out, fh)
            if streams:
                fh.write("".join(out))
                out.clear()
            sep = comma
        out.append("[]" if sep[0] == "[" else ind[:-2] + "]")


def dump(obj, fh):
    """Write to `fh` the text `json.dumps(obj, indent=2) + "\\n"` gives, an
    iterator as the list of its items: one write per item, with the text
    before it, and one for the rest.  Handles dicts with str keys, lists,
    tuples, iterators, str, int, bool and None; TypeError on anything else."""
    out = []
    _put(obj, "\n", out, fh)
    out.append("\n")
    fh.write("".join(out))
