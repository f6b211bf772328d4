module J = Telemetry.Json
module T = Telemetry.Timeline

let opt_float = function Some t -> J.Float t | None -> J.Null

let burst_json (b : T.burst) =
  J.Obj
    [
      ("faults", J.Int b.T.faults);
      ("agents", J.Int b.T.agents);
      ("first_at", J.Float b.T.first_at);
      ("last_at", J.Float b.T.last_at);
      ("broke", J.Bool b.T.broke);
      ("recovered_at", opt_float b.T.recovered_at);
      ("recovery", opt_float (T.recovery_time b));
    ]

let run_json (s : T.summary) =
  let r = s.T.run in
  J.Obj
    [
      ("id", J.String r.Telemetry.Events.id);
      ("protocol", J.String r.Telemetry.Events.protocol);
      ("engine", J.String r.Telemetry.Events.engine);
      ("n", J.Int r.Telemetry.Events.n);
      ("seed", J.Int r.Telemetry.Events.seed);
      ("trial", (match r.Telemetry.Events.trial with Some t -> J.Int t | None -> J.Null));
      ("events", J.Int s.T.events);
      ("steps", J.Int s.T.steps);
      ("first_correct_at", opt_float s.T.first_correct_at);
      ("last_correct_at", opt_float s.T.last_correct_at);
      ("violations", J.Int s.T.violations);
      ("silent_at", opt_float s.T.silent_at);
      ("end_time", J.Float s.T.end_time);
      ("end_interactions", J.Int s.T.end_interactions);
      ("availability", J.Float (T.availability s));
      ("bursts", J.List (List.map burst_json s.T.bursts));
    ]

let snapshot_json ?(dropped = 0) ~path summaries =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let { T.Tally.bursts; broke; recovered; censored; availability; _ } =
    T.Tally.of_summaries summaries
  in
  let end_time = List.fold_left (fun acc s -> Float.max acc s.T.end_time) 0.0 summaries in
  J.Obj
    [
      ("v", J.Int 1);
      ("path", J.String path);
      ("dropped", J.Int dropped);
      ( "aggregate",
        J.Obj
          [
            ("runs", J.Int (List.length summaries));
            ("events", J.Int (sum (fun s -> s.T.events)));
            ("steps", J.Int (sum (fun s -> s.T.steps)));
            ("violations", J.Int (sum (fun s -> s.T.violations)));
            ("availability", J.Float availability);
            ("end_time", J.Float end_time);
            ("bursts", J.Int bursts);
            ("broke", J.Int broke);
            ("recovered", J.Int (List.length recovered));
            ("censored", J.Int censored);
          ] );
      ("runs", J.List (List.map run_json summaries));
      ("recovery_times", J.List (List.map (fun t -> J.Float t) (List.sort compare recovered)));
    ]

(* The live page shell ({!Live_page}) around the dashboard's tiles, two
   hand-rolled SVG strips and per-run table. The x axes below are stream
   time. *)
let page ~path =
  let html_path = Svg.escape path in
  Live_page.render
    ~title:("soak dashboard — " ^ html_path)
    ~heading:"Live soak dashboard"
    ~sub:("tailing <code>" ^ html_path ^ "</code>")
    ~note:"dropped"
    ~style:
      {css|.charts { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
figure { background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  margin: 0; padding: 10px 12px 6px; }
figcaption { color: var(--text-secondary); font-size: 12px; margin-bottom: 4px; }
svg text { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }
|css}
    ~body:
      {html|<section class="tiles">
  <div class="tile"><div class="v" id="t-runs">–</div><div class="l">runs</div></div>
  <div class="tile"><div class="v" id="t-events">–</div><div class="l">events</div></div>
  <div class="tile"><div class="v" id="t-avail">–</div><div class="l">availability</div></div>
  <div class="tile"><div class="v" id="t-viol">–</div><div class="l">correctness losses</div></div>
  <div class="tile"><div class="v" id="t-bursts">–</div><div class="l">bursts (recovered/broke)</div></div>
  <div class="tile"><div class="v" id="t-time">–</div><div class="l">stream time</div></div>
</section>
<section class="charts">
  <figure><figcaption>mean availability over stream time</figcaption>
    <svg id="avail" width="460" height="150" viewBox="0 0 460 150"></svg></figure>
  <figure><figcaption>recovery-time CDF (pooled bursts)</figcaption>
    <svg id="cdf" width="460" height="150" viewBox="0 0 460 150"></svg></figure>
</section>
<table>
  <thead><tr><th>run</th><th>n</th><th>engine</th><th>events</th><th>losses</th>
    <th>availability</th><th>bursts</th><th>last t</th></tr></thead>
  <tbody id="runs"></tbody>
</table>
|html}
    ~script:
      {js|const fmt = (x, d) => x == null ? "–" : (+x).toFixed(d == null ? 2 : d);
const hist = [];   // [stream end_time, mean availability] per snapshot

function axisFrame(svg, w, h, pad) {
  return `<line x1="${pad}" y1="${h - pad}" x2="${w - 6}" y2="${h - pad}"
    stroke="var(--baseline)"/><line x1="${pad}" y1="8" x2="${pad}" y2="${h - pad}"
    stroke="var(--baseline)"/>`;
}

// Availability strip: y in [0,1], x = stream time of each snapshot.
function drawAvail() {
  const svg = $("avail"), w = 460, h = 150, pad = 30;
  if (hist.length === 0) { svg.innerHTML = ""; return; }
  const x1 = hist[hist.length - 1][0] || 1;
  const X = t => pad + (w - 6 - pad) * (x1 ? t / x1 : 0);
  const Y = a => 8 + (h - pad - 8) * (1 - a);
  const pts = hist.map(p => `${X(p[0]).toFixed(1)},${Y(p[1]).toFixed(1)}`).join(" ");
  svg.innerHTML = axisFrame(svg, w, h, pad) +
    `<line x1="${pad}" y1="${Y(1)}" x2="${w - 6}" y2="${Y(1)}" stroke="var(--grid)"/>` +
    `<text x="${pad - 6}" y="${Y(1) + 3}" text-anchor="end">1</text>` +
    `<text x="${pad - 6}" y="${Y(0) + 3}" text-anchor="end">0</text>` +
    `<text x="${w - 6}" y="${h - pad + 12}" text-anchor="end">t=${fmt(x1, 1)}</text>` +
    `<polyline points="${pts}" fill="none" stroke="var(--series-1)" stroke-width="2"
      stroke-linejoin="round"/>`;
}

// Pooled recovery-time CDF (times arrive sorted).
function drawCdf(times) {
  const svg = $("cdf"), w = 460, h = 150, pad = 30;
  if (!times || times.length === 0) {
    svg.innerHTML = `<text x="${w / 2}" y="${h / 2}" text-anchor="middle">no recoveries yet</text>`;
    return;
  }
  const x1 = times[times.length - 1] || 1;
  const X = t => pad + (w - 6 - pad) * (t / x1);
  const Y = f => 8 + (h - pad - 8) * (1 - f);
  let d = `M${X(times[0]).toFixed(1)} ${Y(1 / times.length).toFixed(1)}`;
  times.forEach((t, i) => {
    d += `H${X(t).toFixed(1)} V${Y((i + 1) / times.length).toFixed(1)}`;
  });
  svg.innerHTML = axisFrame(svg, w, h, pad) +
    `<text x="${pad - 6}" y="${Y(1) + 3}" text-anchor="end">1</text>` +
    `<text x="${pad - 6}" y="${Y(0) + 3}" text-anchor="end">0</text>` +
    `<text x="${w - 6}" y="${h - pad + 12}" text-anchor="end">${fmt(x1, 1)}</text>` +
    `<path d="${d}" fill="none" stroke="var(--series-2)" stroke-width="2"/>`;
}

function draw(s) {
  const a = s.aggregate;
  $("t-runs").textContent = a.runs;
  $("t-events").textContent = a.events;
  $("t-avail").textContent = fmt(a.availability, 3);
  $("t-viol").textContent = a.violations;
  $("t-bursts").textContent = `${a.recovered}/${a.broke}`;
  $("t-time").textContent = fmt(a.end_time, 1);
  $("dropped").textContent = s.dropped ? `· ${s.dropped} undecodable lines skipped` : "";
  hist.push([a.end_time, a.availability]);
  drawAvail();
  drawCdf(s.recovery_times);
  $("runs").innerHTML = s.runs.map(r =>
    `<tr><td>${r.id}</td><td>${r.n}</td><td>${r.engine}</td><td>${r.events}</td>` +
    `<td>${r.violations}</td><td>${fmt(r.availability, 3)}</td>` +
    `<td>${r.bursts.length}</td><td>${fmt(r.end_time, 1)}</td></tr>`).join("");
}
|js}
