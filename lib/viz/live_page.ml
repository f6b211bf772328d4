let shared_style =
  {css|.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --ring: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
}
* { box-sizing: border-box; }
body { margin: 0; }
.viz-root {
  min-height: 100vh; background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  padding: 20px; font-size: 14px;
}
header h1 { font-size: 18px; margin: 0 0 2px; }
header .sub { color: var(--text-secondary); font-size: 12px; margin-bottom: 16px; }
header code { font-family: ui-monospace, monospace; font-size: 11px; }
#status { font-weight: 600; }
#theme { float: right; background: var(--surface-1); color: var(--text-secondary);
  border: 1px solid var(--ring); border-radius: 6px; cursor: pointer; padding: 2px 8px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 16px; }
.tile { background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  padding: 10px 14px; min-width: 108px; }
.tile .v { font-size: 22px; }
.tile .l { color: var(--muted); font-size: 11px; margin-top: 2px; }
table { border-collapse: collapse; background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; font-size: 12px; width: 100%; }
th, td { text-align: right; padding: 5px 10px; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; font-family: ui-monospace, monospace; }
th { color: var(--muted); font-weight: 500; border-bottom: 1px solid var(--grid); }
tr + tr td { border-top: 1px solid var(--grid); }
|css}

let shared_script_head =
  {js|"use strict";
const $ = id => document.getElementById(id);

$("theme").addEventListener("click", () => {
  const r = document.documentElement;
  const dark = r.dataset.theme === "dark" ||
    (r.dataset.theme !== "light" && matchMedia("(prefers-color-scheme: dark)").matches);
  r.dataset.theme = dark ? "light" : "dark";
});
|js}

let shared_script_tail =
  {js|
const es = new EventSource("/events");
es.onopen = () => { $("status").textContent = "live"; };
es.onerror = () => { $("status").textContent = "disconnected — retrying"; };
es.onmessage = e => { draw(JSON.parse(e.data)); $("status").textContent = "live"; };
|js}

let render ~title ~heading ~sub ~note ~style ~body ~script =
  String.concat ""
    [
      {|<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<meta name="viewport" content="width=device-width, initial-scale=1"/>
<title>|};
      title;
      "</title>\n<style>\n";
      shared_style;
      style;
      {|</style>
</head>
<body>
<div class="viz-root">
<header>
  <button id="theme" title="toggle light/dark">◐</button>
  <h1>|};
      heading;
      "</h1>\n  <div class=\"sub\">";
      sub;
      {| · <span id="status">connecting…</span>
    <span id="|};
      note;
      "\"></span></div>\n</header>\n";
      body;
      "</div>\n<script>\n";
      shared_script_head;
      script;
      shared_script_tail;
      "</script>\n</body>\n</html>\n";
    ]
