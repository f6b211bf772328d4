(* The live page shell ({!Live_page}) around the board's tiles, group
   line and job table. The page renders the orchestrator's
   [fleet_status] snapshot schema (Fleet.Orchestrator.snapshot_json). *)
let page ~title =
  let html_title = Svg.escape title in
  Live_page.render ~title:("fleet — " ^ html_title) ~heading:"Fleet orchestrator" ~sub:html_title
    ~note:"drain"
    ~style:
      {css|td .state { padding: 1px 7px; border-radius: 10px; font-size: 11px; }
.state.queued    { background: var(--grid); color: var(--text-secondary); }
.state.backoff   { background: var(--grid); color: var(--series-2); }
.state.running   { background: var(--series-1); color: #fff; }
.state.completed { background: var(--series-3); color: #fff; }
.state.failed    { background: var(--series-2); color: #fff; }
#groups { color: var(--text-secondary); font-size: 12px; margin-bottom: 10px; }
|css}
    ~body:
      {html|<section class="tiles">
  <div class="tile"><div class="v" id="t-queue">–</div><div class="l">queue depth</div></div>
  <div class="tile"><div class="v" id="t-flight">–</div><div class="l">in flight</div></div>
  <div class="tile"><div class="v" id="t-done">–</div><div class="l">completed</div></div>
  <div class="tile"><div class="v" id="t-failed">–</div><div class="l">failed</div></div>
  <div class="tile"><div class="v" id="t-retries">–</div><div class="l">retries</div></div>
  <div class="tile"><div class="v" id="t-shed">–</div><div class="l">shed</div></div>
</section>
<div id="groups"></div>
<table>
  <thead><tr><th>job</th><th>group</th><th>protocol</th><th>n</th>
    <th>attempts</th><th>converged</th><th>state</th></tr></thead>
  <tbody id="jobs"></tbody>
</table>
|html}
    ~script:
      {js|function draw(s) {
  $("t-queue").textContent = s.queue_depth;
  $("t-flight").textContent = s.in_flight;
  $("t-done").textContent = `${s.completed}/${s.submitted}`;
  $("t-failed").textContent = s.failed;
  $("t-retries").textContent = s.retries;
  $("t-shed").textContent = s.shed;
  $("drain").textContent = s.draining ? "· draining" : "";
  const groups = Object.entries(s.groups || {});
  $("groups").textContent = groups.length
    ? "queued by group: " + groups.map(([g, d]) => `${g}=${d}`).join("  ") : "";
  $("jobs").innerHTML = (s.jobs || []).map(j =>
    `<tr><td>${j.id}</td><td>${j.group}</td><td>${j.protocol}</td><td>${j.n}</td>` +
    `<td>${j.attempts}</td><td>${j.converged == null ? "–" : j.converged + "/" + j.trials}</td>` +
    `<td><span class="state ${j.state}">${j.state}</span></td></tr>`).join("");
}
|js}
