type outcome = {
  stage : Analysis.Report.stage;
  certificate : Certificate.t option;
}

let find_stage (report : Analysis.Report.t) name =
  List.find_opt (fun s -> String.equal s.Analysis.Report.stage name) report.Analysis.Report.stages

let stage_metric report stage_name metric =
  Option.bind (find_stage report stage_name) (fun s ->
      List.assoc_opt metric s.Analysis.Report.metrics)

(* Cross-validation against the concrete analyzer: both sides decide
   overlapping facts by entirely different means, so any disagreement is
   a bug in one of them and fails the certificate. The concrete model
   check can refute what the symbolic pass cannot prove — asymmetries
   where only one side reaches a verdict are [Na], not conflicts. *)
let cross_checks ~report ~(e : _ Engine.Enumerable.t) ~(trans : Trans.t) ~states
    ~convergence_claim =
  let open Certificate in
  let state_count =
    match stage_metric report "state-count" "states" with
    | Some s when int_of_string_opt s = Some states ->
        { cname = "state-count"; cverdict = Agree; cdetail = Printf.sprintf "%d states" states }
    | Some s ->
        {
          cname = "state-count";
          cverdict = Conflict;
          cdetail = Printf.sprintf "concrete %s states, symbolic %d" s states;
        }
    | None -> { cname = "state-count"; cverdict = Na; cdetail = "no concrete state count" }
  in
  let closure =
    match find_stage report "closure" with
    | Some { Analysis.Report.status = Analysis.Report.Pass; _ } when trans.Trans.escape_count = 0
      ->
        { cname = "closure"; cverdict = Agree; cdetail = "both sides: no escapes" }
    | Some { Analysis.Report.status = Analysis.Report.Fail; _ }
      when trans.Trans.escape_count > 0 ->
        { cname = "closure"; cverdict = Agree; cdetail = "both sides report escapes" }
    | Some { Analysis.Report.status = Analysis.Report.Skip; _ } | None ->
        { cname = "closure"; cverdict = Na; cdetail = "no concrete closure verdict" }
    | Some { Analysis.Report.status; _ } ->
        {
          cname = "closure";
          cverdict = Conflict;
          cdetail =
            Printf.sprintf "concrete closure %s, symbolic escapes %d"
              (Analysis.Report.string_of_status status)
              trans.Trans.escape_count;
        }
  in
  let determinism =
    let declared = e.Engine.Enumerable.protocol.Engine.Protocol.deterministic in
    let observed = trans.Trans.dynamic_pairs = 0 in
    if declared = observed then
      {
        cname = "determinism";
        cverdict = Agree;
        cdetail =
          Printf.sprintf "declared %B, %d dynamic pairs" declared trans.Trans.dynamic_pairs;
      }
    else
      {
        cname = "determinism";
        cverdict = Conflict;
        cdetail =
          Printf.sprintf "declared deterministic=%B but %d dynamic pairs" declared
            trans.Trans.dynamic_pairs;
      }
  in
  let model_check =
    match find_stage report "model-check" with
    | Some { Analysis.Report.status = Analysis.Report.Pass; _ } ->
        if convergence_claim then
          { cname = "model-check"; cverdict = Agree; cdetail = "both sides prove stabilization" }
        else
          {
            cname = "model-check";
            cverdict = Na;
            cdetail = "concrete proof at this n; symbolic proof incomplete";
          }
    | Some { Analysis.Report.status = Analysis.Report.Fail; _ } ->
        if convergence_claim then
          {
            cname = "model-check";
            cverdict = Conflict;
            cdetail = "symbolic convergence claim vs concrete refutation";
          }
        else
          {
            cname = "model-check";
            cverdict = Na;
            cdetail = "concrete refutation; no symbolic claim to contradict";
          }
    | Some { Analysis.Report.status = Analysis.Report.Skip; _ } | None ->
        {
          cname = "model-check";
          cverdict = Na;
          cdetail = "concrete check skipped (over budget): symbolic certificate is the only coverage";
        }
  in
  [ state_count; closure; determinism; model_check ]

let certify_enumerable ~key ~report (e : _ Engine.Enumerable.t) =
  match
    (try
       let ir = Ir.Passes.pipeline e in
       let trans = Trans.of_ir ir in
       let abs = Absint.run ir trans in
       let props = List.map (Props.check ir trans) (Props.catalogue ~key) in
       let ranking = Ranking.synthesize ir trans in
       Ok (ir, trans, abs, props, ranking)
     with exn -> Error exn)
  with
  | Error exn ->
      {
        stage =
          Analysis.Report.finish
            ~findings:[ "certification crashed: " ^ Printexc.to_string exn ]
            ~total:1 "certify";
        certificate = None;
      }
  | Ok (ir, trans, abs, props, ranking) ->
      let p = e.Engine.Enumerable.protocol in
      let states = Ir.size ir in
      let ranking_found = match ranking.Ranking.status with Ranking.Found _ -> true | _ -> false in
      let convergence_claim =
        abs.Absint.range_sound && (ranking_found || abs.Absint.eventually_silent)
      in
      let crosses = cross_checks ~report ~e ~trans ~states ~convergence_claim in
      let prop_certs =
        List.map
          (fun (r : Props.result) ->
            let verdict, detail =
              match r.Props.verdict with
              | Props.Holds -> (Certificate.Holds, None)
              | Props.Refuted msg -> (Certificate.Refuted, Some msg)
              | Props.Inapplicable msg -> (Certificate.Inapplicable, Some msg)
            in
            {
              Certificate.pname = r.Props.decl.Props.pname;
              form = r.Props.decl.Props.form;
              verdict;
              detail;
              outcomes = r.Props.checked_outcomes;
            })
          props
      in
      let refuted =
        List.filter
          (fun (p : Certificate.prop_cert) -> p.Certificate.verdict = Certificate.Refuted)
          prop_certs
      in
      let conflicts =
        List.filter (fun c -> c.Certificate.cverdict = Certificate.Conflict) crosses
      in
      let verdict =
        if (not abs.Absint.range_sound) || refuted <> [] || conflicts <> [] then
          Certificate.Failed
        else if convergence_claim then Certificate.Certified
        else Certificate.Partial
      in
      let cert =
        {
          Certificate.key;
          protocol = p.Engine.Protocol.name;
          n = p.Engine.Protocol.n;
          expectation =
            Format.asprintf "%a" Engine.Enumerable.pp_expectation
              e.Engine.Enumerable.expectation;
          states;
          synthesized = ir.Ir.synthesized;
          exact = ir.Ir.exact;
          static_pairs = trans.Trans.static_pairs;
          dynamic_pairs = trans.Trans.dynamic_pairs;
          escape_count = trans.Trans.escape_count;
          fields = abs.Absint.fields;
          range_sound = abs.Absint.range_sound;
          transient_states = abs.Absint.transient_states;
          core_states = abs.Absint.core_states;
          narrowing_rounds = abs.Absint.rounds;
          eventually_silent = abs.Absint.eventually_silent;
          props = prop_certs;
          ranking = ranking.Ranking.status;
          cross_checks = crosses;
          verdict;
        }
      in
      let findings =
        trans.Trans.escapes
        @ List.filter_map
            (fun (p : Certificate.prop_cert) ->
              match (p.Certificate.verdict, p.Certificate.detail) with
              | Certificate.Refuted, Some d ->
                  Some (Printf.sprintf "prop %s refuted: %s" p.Certificate.pname d)
              | Certificate.Refuted, None ->
                  Some (Printf.sprintf "prop %s refuted" p.Certificate.pname)
              | (Certificate.Holds | Certificate.Inapplicable), _ -> None)
            prop_certs
        @ List.map
            (fun (c : Certificate.cross) ->
              Printf.sprintf "cross-check %s: %s" c.Certificate.cname c.Certificate.cdetail)
            conflicts
      in
      let total =
        trans.Trans.escape_count + List.length refuted + List.length conflicts
      in
      let metrics =
        [
          ("verdict", Certificate.string_of_verdict verdict);
          ("core", Printf.sprintf "%d/%d" abs.Absint.core_states states);
          ("transient", string_of_int abs.Absint.transient_states);
          ( "ranking",
            match ranking.Ranking.status with
            | Ranking.Found atoms ->
                "found:"
                ^ String.concat ","
                    (List.map
                       (fun (a : Ranking.atom) ->
                         a.Ranking.field ^ if a.Ranking.descending then "-" else "+")
                       atoms)
            | Ranking.Not_found _ -> "not-found"
            | Ranking.Skipped _ -> "skipped" );
          ( "props",
            Printf.sprintf "%d/%d hold"
              (List.length
                 (List.filter
                    (fun (p : Certificate.prop_cert) ->
                      p.Certificate.verdict = Certificate.Holds)
                    prop_certs))
              (List.length prop_certs) );
        ]
      in
      let stage =
        Analysis.Report.finish ~metrics
          ~findings:
            (if List.length findings > Analysis.Report.max_findings then
               List.filteri (fun i _ -> i < Analysis.Report.max_findings) findings
             else findings)
          ~total "certify"
      in
      { stage; certificate = Some cert }

let certify_entry ~n ~report (entry : Analysis.Registry.entry) =
  match (try Ok (entry.Analysis.Registry.build ~n) with exn -> Error exn) with
  | Ok (Analysis.Registry.Any e) ->
      certify_enumerable ~key:entry.Analysis.Registry.key ~report e
  | Error exn ->
      {
        stage =
          Analysis.Report.finish
            ~findings:[ "descriptor build failed: " ^ Printexc.to_string exn ]
            ~total:1 "certify";
        certificate = None;
      }
