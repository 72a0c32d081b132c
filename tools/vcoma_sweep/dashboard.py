"""BENCH-history dashboard: every BENCH_*.json in a tree -> HTML.

Each bench binary writes a BENCH_<name>.json report (bench_util.hh's
BenchReport: wall time, executed-simulation count and failure count,
and -- since report schema 2 -- the format version plus the `git
describe` of the build that produced it). The dashboard:

  * collects every report under a root directory;
  * **refuses stale formats**: a report without `schema == 2`/`git`
    predates the versioned format and is listed in a warning section
    instead of among the benches, so a leftover file from an old
    build can never masquerade as a current measurement;
  * renders one line per bench: wall time, executed simulations,
    failures and the build stamp.

Pure stdlib; the output is a single self-contained dashboard.html.
"""

import glob
import html
import json
import os

#: The BenchReport format this dashboard understands. Reports with a
#: different schema (or none) are flagged as stale, never plotted.
BENCH_SCHEMA = 2

_CSS = """
body { font-family: ui-sans-serif, system-ui, sans-serif;
       margin: 2em auto; max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.stale { background: #fff3e0; border: 1px solid #e0a050;
         padding: 0.6em 1em; margin: 0.6em 0; }
.meta { color: #666; font-size: 0.85em; }
"""


def _load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def find_reports(root):
    """Every BENCH_*.json under @root (sorted), shallow dirs included."""
    pattern = os.path.join(glob.escape(root), "**", "BENCH_*.json")
    return sorted(glob.glob(pattern, recursive=True))


def classify_reports(paths):
    """Split reports into (current, stale) lists of (path, doc|reason)."""
    current, stale = [], []
    for path in paths:
        try:
            doc = _load(path)
        except (OSError, ValueError) as e:
            stale.append((path, f"unreadable: {e}"))
            continue
        if not isinstance(doc, dict) or "bench" not in doc:
            stale.append((path, "not a BenchReport"))
        elif doc.get("schema") != BENCH_SCHEMA or "git" not in doc:
            stale.append((path,
                          f"stale format (schema "
                          f"{doc.get('schema')!r}, expected "
                          f"{BENCH_SCHEMA} with a git stamp) -- "
                          "regenerate with a current build"))
        else:
            current.append((path, doc))
    return current, stale


def _bench_section(doc):
    name = doc["bench"]
    return [f'<h2 id="{html.escape(name)}">{html.escape(name)}</h2>',
            f'<p class="meta">wall {doc.get("wall_ms", 0):,.0f} ms · '
            f'{doc.get("executed", 0)} simulation(s) executed · '
            f'{doc.get("failures", 0)} failure(s) · built at '
            f'<code>{html.escape(str(doc.get("git")))}</code></p>']


def build_dashboard(root, out_path=None):
    """Render dashboard.html for every report under @root.

    Returns (html text, number of current reports, number of stale).
    """
    current, stale = classify_reports(find_reports(root))

    parts = ["<!DOCTYPE html><html><head><meta charset=\"utf-8\">",
             "<title>V-COMA bench dashboard</title>",
             f"<style>{_CSS}</style></head><body>",
             "<h1>V-COMA bench dashboard</h1>",
             f'<p class="meta">{len(current)} current report(s), '
             f"{len(stale)} stale/unreadable, scanned under "
             f"<code>{html.escape(os.path.abspath(root))}</code>.</p>"]

    if stale:
        parts.append('<div class="stale"><strong>Ignored '
                     'reports:</strong><ul>')
        for path, reason in stale:
            parts.append(f"<li><code>{html.escape(path)}</code> — "
                         f"{html.escape(reason)}</li>")
        parts.append("</ul></div>")

    if current:
        parts.append("<p>Benches: " + " · ".join(
            f'<a href="#{html.escape(doc["bench"])}">'
            f'{html.escape(doc["bench"])}</a>'
            for _p, doc in current) + "</p>")
        for _path, doc in current:
            parts.extend(_bench_section(doc))
    else:
        parts.append("<p>No current bench reports found. Run any "
                     "bench binary (they write BENCH_*.json beside "
                     "their working directory) and rebuild the "
                     "dashboard.</p>")

    parts.append("</body></html>")
    text = "\n".join(parts) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    return text, len(current), len(stale)
