(* evac: command-line driver for the EVA compiler.

   evac info PROGRAM.eva
   evac compile PROGRAM.eva -o OUT.eva [--policy eva|lazy] [--waterline K] [--eager-relin] [--optimize]
   evac validate PROGRAM.eva [--transformed]
   evac estimate PROGRAM.eva [--log-n K] [--magnitude M] [--waterline K] [--eager-relin] [--optimize]
   evac run PROGRAM.eva [--seed N] [--log-n K] [--reference] [--workers W] [--batch B] [--waterline K] [--eager-relin] [--stats] [--optimize]
   evac serve PROGRAM.eva [--socket PATH] [--queue-depth D] [--pipeline P] [--workers W] [--shed] [--drain-timeout-ms MS]
                          [--deadline-ms MS] [--seed N] [--log-n K] [--waterline K] [--eager-relin] [--optimize]
*)

open Cmdliner

module Ir = Eva_core.Ir
module Serialize = Eva_core.Serialize
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Analysis = Eva_core.Analysis
module Validate = Eva_core.Validate
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Parallel = Eva_schedule.Parallel
module Diag = Eva_diag.Diag

(* Every command body runs under this reporter: any classified error —
   parse, validation, compilation, wire, execution or scheme-layer —
   prints one [EVA-Exxx file:line:col message] line on stderr and exits
   with the layer's distinct code (Parse 3, Validate 4, Compile 5,
   Wire 6, Execute 7, Crypto 8). Foreign exceptions still escape as
   crashes: anything reaching that path is a bug, not an input error. *)
let reporting path f =
  try f ()
  with e -> (
    match Diag.classify e with
    | Some d ->
        Printf.eprintf "%s\n" (Diag.to_string ?file:path d);
        exit (Diag.exit_code d.Diag.layer)
    | None -> raise e)

let load path = Serialize.of_file path

let policy_conv =
  Arg.conv
    ( (fun s ->
        match s with
        | "eva" -> Ok Eva_core.Passes.Eva
        | "lazy" -> Ok Eva_core.Passes.Lazy_insertion
        | _ -> Error (`Msg "policy must be 'eva' or 'lazy'")),
      fun fmt p ->
        Format.pp_print_string fmt (match p with Eva_core.Passes.Eva -> "eva" | Eva_core.Passes.Lazy_insertion -> "lazy") )

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"EVA program file")

(* --- info ----------------------------------------------------------- *)

let info_cmd =
  let run path =
    reporting (Some path) @@ fun () ->
    let p = load path in
    Printf.printf "program %S: vec_size %d, %d nodes\n" p.Ir.prog_name p.Ir.vec_size (Ir.node_count p);
    Printf.printf "multiplicative depth: %d\n" (Analysis.multiplicative_depth p);
    Printf.printf "inputs:\n";
    List.iter
      (fun n ->
        match n.Ir.op with
        | Ir.Input (t, name) ->
            Printf.printf "  %s : %s, scale 2^%d\n" name (Ir.value_type_name t) n.Ir.decl_scale
        | _ -> ())
      (Ir.inputs p);
    Printf.printf "outputs:\n";
    List.iter
      (fun n ->
        match n.Ir.op with
        | Ir.Output name -> Printf.printf "  %s : desired scale 2^%d\n" name n.Ir.decl_scale
        | _ -> ())
      (Ir.outputs p);
    let rot = Analysis.rotation_steps p in
    Printf.printf "rotation steps: [%s]\n" (String.concat "; " (List.map string_of_int rot))
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe an EVA program") Term.(const run $ file_arg)

(* --- compile --------------------------------------------------------- *)

let optimize_flag =
  Arg.(value & flag & info [ "optimize" ] ~doc:"Run CSE, constant folding and strength reduction first")

let eager_relin_flag =
  Arg.(
    value & flag
    & info [ "eager-relin" ]
        ~doc:
          "Place RELINEARIZE at every ciphertext multiply (the paper's eager rule) instead of the \
           default lazy dominance-frontier placement")

let waterline_flag =
  Arg.(value & opt (some int) None & info [ "waterline" ] ~docv:"K" ~doc:"Override the waterline (log2)")

let no_vectorize_flag =
  Arg.(
    value & flag
    & info [ "no-vectorize" ]
        ~doc:
          "Disable the auto-vectorization pass (on by default): compile the scalar graph as \
           written instead of packing isomorphic chains into SIMD lanes")

let compile_cmd =
  let run path out policy waterline eager_relin optimize no_vectorize =
    reporting (Some path) @@ fun () ->
    let p = load path in
    let c = Compile.run ?waterline ~policy ~eager_relin ~optimize ~vectorize:(not no_vectorize) p in
    Format.printf "%a@." Params.pp c.Compile.params;
    (match c.Compile.packing with
    | Some pk ->
        Printf.printf "vectorized: %d input group(s), %d output group(s), %d slots\n"
          (List.length pk.Eva_core.Vectorize.in_groups)
          (List.length pk.Eva_core.Vectorize.out_groups)
          c.Compile.program.Ir.vec_size
    | None -> ());
    match out with
    | Some out ->
        Serialize.to_file out c.Compile.program;
        Printf.printf "wrote %s (%d nodes)\n" out (Ir.node_count c.Compile.program)
    | None -> ()
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write the transformed program") in
  let policy = Arg.(value & opt policy_conv Eva_core.Passes.Eva & info [ "policy" ] ~doc:"Insertion policy: eva or lazy") in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an input program: insert FHE instructions, select parameters")
    Term.(
      const run $ file_arg $ out $ policy $ waterline_flag $ eager_relin_flag $ optimize_flag
      $ no_vectorize_flag)

(* --- validate --------------------------------------------------------- *)

let validate_cmd =
  let run path transformed =
    reporting (Some path) @@ fun () ->
    let p = load path in
    if transformed then Validate.check_transformed p else Validate.check_input_program p;
    print_endline "valid"
  in
  let transformed =
    Arg.(value & flag & info [ "transformed" ] ~doc:"Check the constraints of a transformed program instead")
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate an EVA program") Term.(const run $ file_arg $ transformed)

(* --- run -------------------------------------------------------------- *)

(* Bind every input of [p] at full width to uniform draws from [-1, 1),
   in input order. *)
let random_bindings p seed =
  let st = Random.State.make [| seed |] in
  let draw () = Random.State.float st 2.0 -. 1.0 in
  List.filter_map
    (fun n ->
      match n.Ir.op with
      | Ir.Input (Ir.Scalar, name) -> Some (name, Reference.Scal (draw ()))
      | Ir.Input (_, name) -> Some (name, Reference.Vec (Array.init p.Ir.vec_size (fun _ -> draw ())))
      | _ -> None)
    (Ir.inputs p)

let estimate_cmd =
  (* The estimate must describe the program the user will actually run:
     the same compilation flags `compile` and `run` honor are threaded
     through here, and the effective policy is printed so a prediction
     is never silently about a differently-compiled graph. *)
  let run path log_n magnitude waterline eager_relin optimize no_vectorize batch =
    reporting (Some path) @@ fun () ->
    let p = load path in
    let c = Compile.run ?waterline ~eager_relin ~optimize ~vectorize:(not no_vectorize) ~batch p in
    let log_n = Option.value log_n ~default:c.Compile.params.Params.log_n in
    Printf.printf
      "effective policy: %s relinearization, optimize %s, vectorize %s, batch %d, waterline 2^%d%s\n"
      (if eager_relin then "eager" else "lazy")
      (if optimize then "on" else "off")
      (match c.Compile.packing with
      | Some _ -> "on (fired)"
      | None -> if no_vectorize then "off" else "on (no profitable group)")
      batch
      (Option.value waterline ~default:(Eva_core.Passes.waterline p))
      (match waterline with Some _ -> "" | None -> " (default)");
    Printf.printf "predicted output error at N = 2^%d (input magnitude %.2f):\n" log_n magnitude;
    List.iter
      (fun (name, e) ->
        Printf.printf "  %-16s |value| <= %-10.3g error ~ %.3g\n" name e.Eva_core.Noise.magnitude
          e.Eva_core.Noise.abs_error)
      (Eva_core.Noise.estimate ~input_magnitude:magnitude ~log_n c)
  in
  let log_n = Arg.(value & opt (some int) None & info [ "log-n" ] ~docv:"K" ~doc:"Assume degree 2^K") in
  let magnitude =
    Arg.(value & opt float 1.0 & info [ "magnitude" ] ~docv:"M" ~doc:"Bound on |input values|")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:"Estimate for the B-lane slot-batched variant (power of two; 1 = unbatched)")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Predict output error statically (no execution)")
    Term.(
      const run $ file_arg $ log_n $ magnitude $ waterline_flag $ eager_relin_flag $ optimize_flag
      $ no_vectorize_flag $ batch)

let run_cmd =
  let run path seed log_n reference workers waterline eager_relin stats optimize batch
      no_vectorize =
    reporting (Some path) @@ fun () ->
    let p = load path in
    let workers = max 1 workers and batch = max 1 batch in
    let show outputs =
      List.iter
        (fun (name, v) ->
          let k = min 8 (Array.length v) in
          Printf.printf "%s = [%s%s]\n" name
            (String.concat "; " (List.init k (fun i -> Printf.sprintf "%.6f" v.(i))))
            (if Array.length v > k then "; ..." else ""))
        outputs
    in
    let show_stats (t : Executor.timings) =
      let oc = t.Executor.op_counts in
      Printf.printf "fhe ops: %d multiply, %d relinearize, %d rescale, %d rotate\n"
        oc.Executor.multiplies oc.Executor.relinearizations oc.Executor.rescales
        oc.Executor.rotations;
      Printf.printf
        "timings: context %.3fs, encrypt %.3fs, execute %.3fs, decrypt %.3fs (pt-cache %d hits, \
         %d misses)\n"
        t.Executor.context_seconds t.Executor.encrypt_seconds t.Executor.execute_seconds
        t.Executor.decrypt_seconds t.Executor.pt_cache_hits t.Executor.pt_cache_misses
    in
    if reference then show (Reference.execute p (random_bindings p seed))
    else begin
      (* One path for every --workers/--batch: compile widened to
         [batch] lanes (one at --batch 1), fill lane b with its own
         random member (seed + b), run the graph once on [workers]
         domains, then scatter each lane back out and check it against
         that member's own reference run. *)
      let c = Compile.run ?waterline ~eager_relin ~optimize ~vectorize:(not no_vectorize) ~batch p in
      Format.printf "%a@." Params.pp c.Compile.params;
      let seeds = Array.init batch (fun b -> seed + b) in
      let members = Array.map (random_bindings p) seeds in
      let engine = Executor.keygen ~seed ~ignore_security:(log_n <> None) ?log_n c in
      let engine = Executor.rebind_batched ~encrypt_workers:workers ~seeds engine c members in
      let r = Parallel.execute_on ~workers engine c in
      Printf.printf "execute: %d lane(s) in one evaluation on %d worker(s), %.3fs (peak live values %d)\n"
        batch workers r.Parallel.timings.Executor.execute_seconds r.Parallel.peak_live_values;
      if stats then begin
        show_stats r.Parallel.timings;
        let f = Executor.key_footprint engine in
        let mib words = float_of_int (8 * words) /. 1048576.0 in
        Printf.printf "keys: %d switch keys, %.2f MiB held, %.2f MiB at full depth\n"
          f.Eva_ckks.Keys.switch_keys (mib f.Eva_ckks.Keys.held_words) (mib f.Eva_ckks.Keys.full_words)
      end;
      Array.iteri
        (fun b member ->
          let lane (name, v) = (name, Executor.extract_lane ~lanes:batch ~lane:b v) in
          let lane_out = Compile.unpack_outputs c (List.map lane r.Parallel.outputs) in
          if b = 0 then show lane_out;
          Printf.printf "lane %d: max |encrypted - reference| = %.3e\n" b
            (Executor.max_abs_error lane_out (Reference.execute p member)))
        members
    end
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for inputs and keys") in
  let log_n =
    Arg.(value & opt (some int) None & info [ "log-n" ] ~docv:"K" ~doc:"Execute at degree 2^K (insecure; for testing)")
  in
  let reference = Arg.(value & flag & info [ "reference" ] ~doc:"Run the id-scheme reference semantics only") in
  let workers = Arg.(value & opt int 1 & info [ "workers" ] ~doc:"Worker domains for parallel execution") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print per-op kernel counts and phase timings")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Slot-batch B independent random requests into one ciphertext (power of two): the \
             program is widened to B interleaved lanes, evaluated once, and each lane is checked \
             against its own reference run")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a program on random inputs under RNS-CKKS")
    Term.(
      const run $ file_arg $ seed $ log_n $ reference $ workers $ waterline_flag $ eager_relin_flag
      $ stats $ optimize_flag $ batch $ no_vectorize_flag)

(* --- serve ------------------------------------------------------------ *)

(* Raised (only ever on the main domain — OCaml runs signal handlers
   there) to break the blocked read/accept when SIGINT/SIGTERM arrives,
   after the handler has already closed admission on the live daemon. *)
exception Shutdown_signal

let serve_cmd =
  (* Compile once, keygen once, then stream framed requests through the
     warm engine. Stdio mode serves one stream on stdin/stdout (stats go
     to stderr so they never corrupt the response stream); socket mode
     binds a Unix socket and serves one stream per accepted connection. *)
  let run path socket queue_depth pipeline workers deadline_ms seed log_n waterline eager_relin
      optimize no_vectorize shed drain_timeout_ms max_batch batch_linger_ms =
    reporting (Some path) @@ fun () ->
    let p = load path in
    let c = Compile.run ?waterline ~eager_relin ~optimize ~vectorize:(not no_vectorize) p in
    (* With batching the one keyset must also cover every batched
       variant's rotations (steps scaled by the lane count), at exactly
       the widths Serve.start will pick for the ring the daemon runs at. *)
    let slots = 1 lsl (Option.value log_n ~default:c.Compile.params.Params.log_n - 1) in
    let widths = Compile.batch_widths c ~max_batch ~slots in
    let extra_rotations = Compile.batch_rotations c ~max_lanes:(List.fold_left max 1 widths) in
    let engine = Executor.keygen ~seed ~ignore_security:(log_n <> None) ?log_n ~extra_rotations c in
    let config =
      {
        Eva_schedule.Serve.default_config with
        Eva_schedule.Serve.queue_depth;
        pipeline;
        graph_workers = workers;
        default_deadline_ms = deadline_ms;
        shed =
          (if shed then
             Eva_schedule.Serve.Watermarks
               { high = max 1 (queue_depth - 1); low = min (max 1 (queue_depth - 1) - 1) (queue_depth / 2) }
           else Eva_schedule.Serve.No_shedding);
        seed;
        max_batch;
        batch_linger_ms;
      }
    in
    let report stats =
      let open Eva_schedule.Serve in
      Printf.eprintf
        "evac serve: %d served, %d failed (%d shed, %d cancelled), %d fault retries (budget %d \
         left), queue high-water %d, pt-cache hit rate %.1f%%\n\
         %!"
        stats.requests_served stats.requests_failed stats.requests_shed stats.requests_cancelled
        stats.faults_retried stats.retry_budget_left stats.queue_high_water
        (100.0 *. pt_hit_rate stats);
      if stats.responses_dropped > 0 then
        Printf.eprintf "evac serve: %d response(s) dropped on broken client streams\n%!"
          stats.responses_dropped;
      if max_batch > 1 then
        Printf.eprintf
          "evac serve: %d execution(s) for %d served (%.2f requests/execution), slot utilization \
           %.1f%%, %d batch(es) dissolved, batch histogram [%s]\n\
           %!"
          stats.executions stats.requests_served
          (if stats.executions = 0 then 0.0
           else float_of_int stats.requests_served /. float_of_int stats.executions)
          (100.0 *. slot_utilization stats)
          stats.batches_dissolved
          (String.concat "; "
             (Array.to_list (Array.map string_of_int stats.batch_histogram)))
    in
    (* SIGINT/SIGTERM: close admission on the live daemon (arming the
       drain timeout, so in-flight work finishes or is cancelled within
       one node of it), then break the blocked read/accept with
       [Shutdown_signal] so the main loop can drain and report. *)
    let daemon : Eva_schedule.Serve.t option ref = ref None in
    let on_signal =
      Sys.Signal_handle
        (fun _ ->
          (match !daemon with
          | Some t -> Eva_schedule.Serve.shutdown ?drain_timeout_ms t
          | None -> ());
          raise Shutdown_signal)
    in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    (* A client that hangs up mid-response must surface as EPIPE on the
       write (contained per connection), not as a fatal SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let on_start t = daemon := Some t in
    let drain_after_signal () =
      match !daemon with
      | Some t ->
          report (Eva_schedule.Serve.drain ?timeout_ms:drain_timeout_ms t);
          daemon := None
      | None -> ()
    in
    match socket with
    | None -> (
        match Eva_schedule.Serve.run_channels ~config ~on_start c engine stdin stdout with
        | stats -> report stats
        | exception Shutdown_signal ->
            Printf.eprintf "evac serve: shutdown signal, draining\n%!";
            drain_after_signal ())
    | Some sock_path ->
        (* Refuse to unlink anything that is not a stale socket. *)
        (match Unix.lstat sock_path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink sock_path
        | _ -> failwith (Printf.sprintf "evac serve: %s exists and is not a socket" sock_path)
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX sock_path);
        Unix.listen srv 8;
        Printf.eprintf "evac serve: listening on %s (^C to stop)\n%!" sock_path;
        let close_conn ic oc =
          (try close_out oc with _ -> ());
          try close_in ic with _ -> ()
        in
        let rec accept_loop () =
          match Unix.accept srv with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Shutdown_signal ->
              Printf.eprintf "evac serve: shutdown signal, exiting\n%!"
          | conn, _ -> (
              let ic = Unix.in_channel_of_descr conn and oc = Unix.out_channel_of_descr conn in
              (* One stream per connection; the engine (and its warm
                 encode cache) is shared across connections. A
                 connection that errors out — even mid-frame — is
                 closed and logged; the daemon keeps accepting. *)
              match Eva_schedule.Serve.run_channels ~config ~on_start c engine ic oc with
              | stats ->
                  daemon := None;
                  report stats;
                  close_conn ic oc;
                  accept_loop ()
              | exception Shutdown_signal ->
                  Printf.eprintf "evac serve: shutdown signal, draining\n%!";
                  drain_after_signal ();
                  close_conn ic oc
              | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
                  drain_after_signal ();
                  Printf.eprintf "evac serve: connection lost, continuing\n%!";
                  close_conn ic oc;
                  accept_loop ())
        in
        Fun.protect ~finally:(fun () -> try Unix.unlink sock_path with _ -> ()) accept_loop
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix socket instead of serving one stream on stdin/stdout")
  in
  let queue_depth =
    Arg.(value & opt int 8 & info [ "queue-depth" ] ~docv:"D" ~doc:"Admission queue bound")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"P" ~doc:"Worker domains evaluating requests concurrently")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"W" ~doc:"Graph-level worker domains per request")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Default per-request deadline when a request carries none")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Key-generation seed and request-seed base") in
  let log_n =
    Arg.(value & opt (some int) None & info [ "log-n" ] ~docv:"K" ~doc:"Serve at degree 2^K (insecure; for testing)")
  in
  let shed =
    Arg.(
      value & flag
      & info [ "shed" ]
          ~doc:
            "Enable overload shedding: requests predicted to miss their deadline are refused \
             immediately with EVA-E509, and no-deadline requests are shed by queue-depth \
             watermarks while the daemon is in overload. Until the first request completes, the \
             prediction uses the cost model's built-in default coefficients, not a calibration on \
             this machine")
  in
  let drain_timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On SIGINT/SIGTERM, give in-flight and queued requests this long to finish; past it \
             they are cancelled at their next node checkpoint (EVA-E505). Default: drain fully")
  in
  let max_batch =
    Arg.(
      value & opt int 1
      & info [ "max-batch" ] ~docv:"B"
          ~doc:
            "Slot-batch up to B compatible queued requests into one ciphertext per execution \
             (power-of-two widths, clamped to what the ring's slots hold). One evaluation then \
             serves the whole batch; 1 disables batching")
  in
  let batch_linger_ms =
    Arg.(
      value & opt float 0.0
      & info [ "batch-linger-ms" ] ~docv:"MS"
          ~doc:
            "How long a worker holding a partial batch waits for more queued requests before \
             executing anyway; never waits past the point a collected request's deadline requires \
             the batch to start")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Compile and keygen once, then serve framed evaluation requests")
    Term.(
      const run $ file_arg $ socket $ queue_depth $ pipeline $ workers $ deadline_ms $ seed $ log_n
      $ waterline_flag $ eager_relin_flag $ optimize_flag $ no_vectorize_flag $ shed $ drain_timeout_ms
      $ max_batch $ batch_linger_ms)

let () =
  let doc = "EVA: encrypted vector arithmetic compiler" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "evac" ~version:"1.0.0" ~doc)
          [ info_cmd; compile_cmd; validate_cmd; estimate_cmd; run_cmd; serve_cmd ]))
