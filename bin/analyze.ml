(* analyze: static analysis of the protocol catalogue — state-space
   closure, invariant lint, silence classification and small-n exhaustive
   model checking. Examples:

     analyze --list
     analyze --protocol all --n 3 --n 4 --report json
     analyze -p optimal_silent_small -p reset --n 4 --jobs 4
     analyze -p sublinear --n 2 --max-configs 1000000
     analyze --certify --certify-dir certificates *)

let list_entries () =
  List.iter
    (fun (e : Analysis.Registry.entry) -> Printf.printf "%-22s %s\n" e.Analysis.Registry.key e.Analysis.Registry.summary)
    Analysis.Registry.entries;
  0

let resolve_entries protocols =
  let keys = if protocols = [] then [ "all" ] else protocols in
  if List.mem "all" keys then Ok Analysis.Registry.entries
  else
    let missing = List.filter (fun k -> Analysis.Registry.find k = None) keys in
    if missing <> [] then Error missing
    else
      Ok
        (List.filter
           (fun (e : Analysis.Registry.entry) -> List.mem e.Analysis.Registry.key keys)
           Analysis.Registry.entries)

(* --dump-ir: print the fully lowered IR (fields, code space, pass log,
   small-space code maps) for one catalogue entry. The golden files under
   test/golden/ are regenerated from this output. *)
let dump_ir ~key ~n =
  match Analysis.Registry.find key with
  | None ->
      Printf.eprintf "unknown protocol '%s' (available: %s)\n" key
        (String.concat ", " (Analysis.Registry.keys ()));
      exit 2
  | Some entry -> (
      match entry.Analysis.Registry.build ~n with
      | Analysis.Registry.Any e ->
          Format.printf "%a@." Ir.pp (Ir.Passes.pipeline e);
          0)

(* --certify: run the symbolic certifier on every analyzed instance,
   append its verdict as a [certify] stage and write one JSON certificate
   per instance under --certify-dir. A certification or write failure on
   one instance is that instance's failed stage; the rest still run. *)
let certify_reports ~dir ~entries ~ns reports =
  let instances = List.concat_map (fun entry -> List.map (fun n -> (entry, n)) ns) entries in
  (match Sys.file_exists dir with
  | true -> ()
  | false -> ( try Sys.mkdir dir 0o755 with Sys_error _ -> ()));
  List.map2
    (fun (entry, n) (report : Analysis.Report.t) ->
      let { Certify.Driver.stage; certificate } = Certify.Driver.certify_entry ~n ~report entry in
      let stages =
        match certificate with
        | None -> [ stage ]
        | Some cert -> (
            let path =
              Filename.concat dir
                (Printf.sprintf "cert_%s_n%d.json" entry.Analysis.Registry.key n)
            in
            match
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc (Certify.Certificate.to_string cert ^ "\n"))
            with
            | () -> [ stage ]
            | exception Sys_error msg ->
                [
                  stage;
                  Analysis.Report.finish
                    ~findings:[ Printf.sprintf "cannot write %s: %s" path msg ]
                    ~total:1 "certify-io";
                ])
      in
      { report with Analysis.Report.stages = report.Analysis.Report.stages @ stages })
    instances reports

let main protocols ns report_format jobs max_configs list dump certify certify_dir =
  if list then list_entries ()
  else begin
    let jobs =
      match Engine.Pool.resolve_jobs jobs with
      | Ok j -> j
      | Error msg ->
          prerr_endline msg;
          exit 2
    in
    let ns = if ns = [] then [ 3; 4 ] else ns in
    (match List.find_opt (fun n -> n < 2) ns with
    | Some n ->
        Printf.eprintf "--n must be >= 2 (got %d)\n" n;
        exit 2
    | None -> ());
    match dump with
    | Some key -> dump_ir ~key ~n:(List.hd ns)
    | None -> (
    match resolve_entries protocols with
    | Error missing ->
        Printf.eprintf "unknown protocol%s: %s (available: %s, all)\n"
          (if List.length missing = 1 then "" else "s")
          (String.concat ", " missing)
          (String.concat ", " (Analysis.Registry.keys ()));
        exit 2
    | Ok entries ->
        let reports =
          Engine.Pool.with_pool ~jobs (fun pool ->
              Analysis.Driver.analyze_all ~pool ~max_configs ~ns entries)
        in
        let reports =
          if certify then certify_reports ~dir:certify_dir ~entries ~ns reports else reports
        in
        (match report_format with
        | "json" -> print_endline (Analysis.Report.list_to_json reports)
        | _ ->
            List.iter (fun r -> Format.printf "%a@.@." Analysis.Report.pp r) reports;
            Format.printf "%a" Analysis.Report.pp_summary reports);
        if Analysis.Report.all_ok reports then 0 else 1)
  end

open Cmdliner

let protocols_arg =
  let doc =
    "Protocol instance to analyze (repeatable; $(b,all) for the whole catalogue — the default). \
     See $(b,--list)."
  in
  Arg.(value & opt_all string [] & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let ns_arg =
  let doc = "Population size (repeatable; default 3 and 4)." in
  Arg.(value & opt_all int [] & info [ "n" ] ~docv:"N" ~doc)

let report_arg =
  let doc = "Output format: text or json." in
  Arg.(value & opt string "text" & info [ "report" ] ~docv:"FORMAT" ~doc)

let jobs_arg =
  let doc =
    "Number of domains for the parallel scans (default: $(b,REPRO_JOBS) or the recommended \
     domain count). Verdicts are identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let max_configs_arg =
  let doc =
    "Exhaustive-analysis budget: silence classification and model checking skip instances with \
     more configurations than this."
  in
  Arg.(
    value
    & opt int Analysis.Driver.default_max_configs
    & info [ "max-configs" ] ~docv:"COUNT" ~doc)

let list_arg =
  let doc = "List the protocol catalogue and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let dump_ir_arg =
  let doc =
    "Print the lowered kernel-compiler IR (fields, packed code space, pass log) for one \
     catalogue entry at the first $(b,--n) and exit. The golden files under test/golden/ are \
     regenerated with this flag."
  in
  Arg.(value & opt (some string) None & info [ "dump-ir" ] ~docv:"NAME" ~doc)

let certify_arg =
  let doc =
    "Run the symbolic certifier (interval+parity abstract interpretation, inductive \
     invariants, lexicographic ranking synthesis) on every analyzed instance and write one \
     schema-versioned JSON certificate per instance under $(b,--certify-dir)."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let certify_dir_arg =
  let doc = "Output directory for $(b,--certify) JSON certificates." in
  Arg.(value & opt string "certificates" & info [ "certify-dir" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "statically analyze the population-protocol catalogue" in
  let info = Cmd.info "analyze" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const main $ protocols_arg $ ns_arg $ report_arg $ jobs_arg $ max_configs_arg $ list_arg
      $ dump_ir_arg $ certify_arg $ certify_dir_arg)

(* cmdliner only recognizes single-character names as short options, but
   the documented interface is "--n 4"; accept both spellings. *)
let argv =
  Array.map
    (fun a ->
      if String.equal a "--n" then "-n"
      else if String.length a > 4 && String.sub a 0 4 = "--n=" then
        "-n" ^ String.sub a 4 (String.length a - 4)
      else a)
    Sys.argv

(* Every usage error exits 2, cmdliner's own parse errors included. *)
let () = exit (match Cmd.eval' ~argv cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
