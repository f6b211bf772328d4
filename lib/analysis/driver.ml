let default_max_configs = 200_000

let guard stage f =
  try f ()
  with exn ->
    Report.finish ~findings:[ "exception: " ^ Printexc.to_string exn ] ~total:1 stage

let count_stage ~table1 (e : _ Engine.Enumerable.t) space =
  let actual = Statespace.size space in
  let metrics = ref [ ("states", string_of_int actual) ] in
  let findings = ref [] in
  (match e.Engine.Enumerable.declared_count with
  | Some declared when declared <> actual ->
      findings :=
        Printf.sprintf "declared closed-form count %d <> enumerated count %d" declared actual
        :: !findings
  | Some _ | None -> ());
  (if table1 then begin
     let name = e.Engine.Enumerable.protocol.Engine.Protocol.name in
     let n = e.Engine.Enumerable.protocol.Engine.Protocol.n in
     match
       List.find_opt
         (fun (row : Core.State_space.row) -> String.equal row.Core.State_space.protocol name)
         (Core.State_space.table1_rows ~n)
     with
     | Some { Core.State_space.exact = Some expected; _ } ->
         metrics := ("table1", string_of_int expected) :: !metrics;
         if expected <> actual then
           findings :=
             Printf.sprintf "Table 1 count %d <> enumerated count %d" expected actual :: !findings
     | Some { Core.State_space.exact = None; _ } | None ->
         findings :=
           Printf.sprintf "no exact Table 1 row matches protocol %S" name :: !findings
   end);
  Report.finish ~metrics:(List.rev !metrics) ~findings:(List.rev !findings)
    ~total:(List.length !findings) "state-count"

let analyze_enumerable ~pool ~max_configs ~key ~table1 (e : _ Engine.Enumerable.t) =
  let p = e.Engine.Enumerable.protocol in
  let base =
    {
      Report.key;
      protocol = p.Engine.Protocol.name;
      n = p.Engine.Protocol.n;
      expectation =
        Format.asprintf "%a" Engine.Enumerable.pp_expectation e.Engine.Enumerable.expectation;
      note = e.Engine.Enumerable.note;
      stages = [];
    }
  in
  match (try Ok (Statespace.of_enumerable e) with exn -> Error exn) with
  | Error exn ->
      (* the descriptor violates the Statespace contract (duplicates,
         non-identity normalize): nothing downstream is meaningful *)
      {
        base with
        Report.stages =
          [
            Report.finish ~findings:[ "exception: " ^ Printexc.to_string exn ] ~total:1
              "state-count";
          ];
      }
  | Ok space ->
      let counts = guard "state-count" (fun () -> count_stage ~table1 e space) in
      (* One pair-outcome scan feeds the closure/lint stages and the chain;
         the Θ(s²) index table is retained only when the budget gate says
         the chain will be built. *)
      let gate = Model_check.gate ~max_configs e space in
      let relation =
        try Ok (Relation.scan ~pool ~keep_tables:(gate = `Run) e space) with exn -> Error exn
      in
      let closure, lint =
        match relation with
        | Ok r -> (Relation.closure_stage r, Relation.lint_stage r)
        | Error exn ->
            let findings = [ "exception: " ^ Printexc.to_string exn ] in
            let failed = Report.finish ~findings ~total:1 in
            (failed "closure", failed "invariant-lint")
      in
      (* One chain build gives both the silence and the model-check stage. *)
      let silence, mc =
        match (gate, relation) with
        | `Skip stages, _ -> stages
        | `Run, Ok r -> (
            try Model_check.check ~pool ~relation:r e space with exn -> Model_check.failed e exn)
        | `Run, Error exn -> Model_check.failed e exn
      in
      { base with Report.stages = [ counts; closure; lint; silence; mc ] }

let analyze_entry ~pool ~max_configs ~n (entry : Registry.entry) =
  match (try Ok (entry.Registry.build ~n) with exn -> Error exn) with
  | Ok (Registry.Any e) ->
      analyze_enumerable ~pool ~max_configs ~key:entry.Registry.key ~table1:entry.Registry.table1 e
  | Error exn ->
      {
        Report.key = entry.Registry.key;
        protocol = "?";
        n;
        expectation = "?";
        note = None;
        stages =
          [
            Report.finish ~findings:[ "descriptor build failed: " ^ Printexc.to_string exn ]
              ~total:1 "build";
          ];
      }

let analyze_all ~pool ~max_configs ~ns entries =
  List.concat_map
    (fun entry -> List.map (fun n -> analyze_entry ~pool ~max_configs ~n entry) ns)
    entries
