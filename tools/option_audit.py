#!/usr/bin/env python3
"""List option fields that nothing sets.

Every data member of every `struct *Options` under src/ is checked against
the sources in src/, bench/, perfbench/, examples/ and tests/. A field
counts as set when some file writes it: `.name =` or `->name =` (also
`+=` and friends, and `.name[i] =`), or `.name.` as the prefix of a nested
write such as `o.compute.mem_pages = 8`. A write straight through a
class's own `opts_` (`opts_.name = ...`) does not count: that is the
owner clamping its copy, not a caller choosing a value. Names are matched
without their struct, so a write to a name two structs share counts for
both; the audit can miss an unset field but never flags a set one.

Prints `path:line: Struct::field` for each unset field and exits 1 if it
printed anything, 0 otherwise. Run from anywhere:

  python3 tools/option_audit.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "bench", "perfbench", "examples", "tests")
SOURCE_EXT = (".h", ".hpp", ".cc", ".cpp")
STRUCT_RE = re.compile(r"\bstruct\s+(\w+Options)\s*(?:final\s*)?\{")
# Writes: `.name` or `->name`, then any `.field` / `[index]` chain, then an
# assignment operator that is not `==`.
WRITE_RE = re.compile(
    r"(\bopts_)?(?:\.|->)(\w+)((?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*)"
    r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)")


def source_files():
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, name)


def strip_comments(text):
    """Blank out comments and string literals, keeping offsets and lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def member_name(stmt):
    """The declared name of a data-member statement, or None."""
    stmt = stmt.strip()
    if not stmt or re.match(
            r"(static|using|typedef|friend|enum|struct|class|template)\b",
            stmt):
        return None
    # Cut the initializer: the first top-level `=` or `{`.
    depth = 0
    for i, c in enumerate(stmt):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif depth == 0 and c in "={":
            stmt = stmt[:i]
            break
    stmt = stmt.strip()
    if stmt.endswith(")") or re.search(r"\)\s*(const|noexcept|override)\s*$",
                                       stmt):
        return None  # a function declaration
    m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?$", stmt)
    if not m or " " not in stmt.replace("\t", " ").strip():
        return None
    return m.group(1)


def option_fields(text):
    """Yield (struct, field, line) for each data member of *Options."""
    clean = strip_comments(text)
    for m in STRUCT_RE.finditer(clean):
        i = m.end()
        depth, stmt_start, is_body = 1, i, False
        while i < len(clean) and depth > 0:
            c = clean[i]
            if c == "{":
                if depth == 1:
                    # An inline member function body, or a brace
                    # initializer (`PartitionMap pm{16384};`)?
                    is_body = bool(re.search(
                        r"\)\s*(const|noexcept|override|\s)*$",
                        clean[stmt_start:i]))
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 1 and is_body:
                    stmt_start = i + 1  # skip the whole function
            elif c == ";" and depth == 1:
                stmt = clean[stmt_start:i]
                name = member_name(stmt)
                if name:
                    first = stmt_start + len(stmt) - len(stmt.lstrip())
                    yield m.group(1), name, clean.count("\n", 0, first) + 1
                stmt_start = i + 1
            i += 1


def written_names(texts):
    names = set()
    for text in texts:
        for m in WRITE_RE.finditer(text):
            through_opts, name, chain = m.group(1), m.group(2), m.group(3)
            if through_opts and not chain.strip():
                continue  # the owner writing its own copy
            names.add(name)
            # Every `.field` in the chain is written too (`o.a.b = 1` sets b).
            names.update(re.findall(r"(?:\.|->)\s*(\w+)", chain))
    return names


def main():
    texts, fields = [], []
    for path in source_files():
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        texts.append(strip_comments(text))
        rel = os.path.relpath(path, ROOT)
        if rel.startswith("src" + os.sep):
            fields.extend((rel, line, struct, name)
                          for struct, name, line in option_fields(text))
    written = written_names(texts)
    unset = [f for f in fields if f[3] not in written]
    for rel, line, struct, name in unset:
        print(f"{rel}:{line}: {struct}::{name}")
    if unset:
        print(f"{len(unset)} of {len(fields)} option fields are set by no "
              "caller; fold each into a constant", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
