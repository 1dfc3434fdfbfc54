(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section 8), plus the two wall-clock gates `vectorize` and
   `batch`. See DESIGN.md for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table6       # one experiment
     dune exec bench/main.exe -- list         # available experiments

   Absolute numbers come from a from-scratch OCaml RNS-CKKS simulator on
   one core, so they differ from the paper's SEAL-on-56-core testbed; the
   shapes (who wins, by what factor, where parameters land) are the
   reproduction target. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Passes = Eva_core.Passes
module Analysis = Eva_core.Analysis
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module N = Eva_tensor.Network
module Nets = Eva_tensor.Networks
module T = Eva_tensor.Tensor
module Cost = Eva_schedule.Cost
module Makespan = Eva_schedule.Makespan
module Parallel = Eva_schedule.Parallel
module Apps = Eva_apps.Apps

(* Set from the command line when `--smoke` is passed: tiny sizes, one
   iteration, so CI catches experiments that crash or disagree without
   paying for a real measurement run. *)
let smoke = ref false

let header title =
  Printf.printf "\n================================================================\n%s\n================================================================\n" title

let hline () = Printf.printf "----------------------------------------------------------------\n"

(* ------------------------------------------------------------------ *)
(* Shared: lowered + compiled networks, memoized                       *)
(* ------------------------------------------------------------------ *)

type compiled_net = { net : N.t; lowered : N.lowered; compiled : Compile.compiled; compile_seconds : float }

let cache : (string * Eva_tensor.Kernels.mode, compiled_net) Hashtbl.t = Hashtbl.create 16

let compiled_net net mode =
  match Hashtbl.find_opt cache (net.N.net_name, mode) with
  | Some c -> c
  | None ->
      let w = N.random_weights net ~seed:1 in
      let lowered = N.lower ~mode ~scales:(Nets.scales_for net) net w in
      let policy = match mode with `Eva -> Passes.Eva | `Chet -> Passes.Lazy_insertion in
      let compiled, compile_seconds = Compile.run_timed ~policy lowered.N.program in
      let c = { net; lowered; compiled; compile_seconds } in
      Hashtbl.replace cache (net.N.net_name, mode) c;
      c

let paper_table6 =
  [
    ("LeNet-5-small", ((15, 480, 8), (14, 360, 6)));
    ("LeNet-5-medium", ((15, 480, 8), (14, 360, 6)));
    ("LeNet-5-large", ((15, 740, 13), (15, 480, 8)));
    ("Industrial", ((16, 1222, 21), (15, 810, 14)));
    ("SqueezeNet-CIFAR", ((16, 1740, 29), (16, 1225, 21)));
  ]

let paper_table5 =
  [
    ("LeNet-5-small", (3.7, 0.6));
    ("LeNet-5-medium", (5.8, 1.2));
    ("LeNet-5-large", (23.3, 5.6));
    ("Industrial", (70.4, 9.6));
    ("SqueezeNet-CIFAR", (344.7, 72.7));
  ]

let paper_table7 =
  [
    ("LeNet-5-small", (0.14, 1.21, 0.03, 0.01));
    ("LeNet-5-medium", (0.50, 1.26, 0.03, 0.01));
    ("LeNet-5-large", (1.13, 7.24, 0.08, 0.02));
    ("Industrial", (0.59, 15.70, 0.12, 0.03));
    ("SqueezeNet-CIFAR", (4.06, 160.82, 0.42, 0.26));
  ]

let paper_table8 =
  [
    ("3-dimensional Path Length", (45, 0.394));
    ("Linear Regression", (10, 0.027));
    ("Polynomial Regression", (15, 0.104));
    ("Multivariate Regression", (15, 0.094));
    ("Sobel Filter Detection", (35, 0.511));
    ("Harris Corner Detection", (40, 1.004));
  ]

(* ------------------------------------------------------------------ *)
(* Figures 2, 3, 5: the compiler's worked examples                     *)
(* ------------------------------------------------------------------ *)

let count p pred = List.length (List.filter (fun n -> pred n.Ir.op) p.Ir.all_nodes)

let describe_fhe_ops label p =
  Printf.printf "  %-34s rescale %-2d modswitch %-2d relinearize %-2d matchscale %-2d\n" label
    (count p (function Ir.Rescale _ -> true | _ -> false))
    (count p (function Ir.Mod_switch -> true | _ -> false))
    (count p (function Ir.Relinearize -> true | _ -> false))
    (count p (function Ir.Constant (Ir.Const_scalar 1.0) -> true | _ -> false))

let figures235 () =
  header "Figures 2, 3, 5: rescale / modswitch insertion on the worked examples";
  let fig2 () =
    let b = B.create ~name:"x2y3" ~vec_size:8 () in
    let x = B.input b ~scale:60 "x" in
    let y = B.input b ~scale:30 "y" in
    let open B.Infix in
    B.output b "out" ~scale:30 (x * x * (y * y * y));
    B.program b
  in
  Printf.printf "Figure 2 (x^2 y^3, x at 2^60, y at 2^30, waterline 2^30):\n";
  let p_always = Ir.copy (fig2 ()) in
  ignore (Passes.always_rescale p_always);
  describe_fhe_ops "(b) ALWAYS-RESCALE" p_always;
  let p_water = Ir.copy (fig2 ()) in
  ignore (Passes.waterline_rescale ~waterline:30 p_water);
  describe_fhe_ops "(d) WATERLINE-RESCALE" p_water;
  ignore (Passes.eager_modswitch p_water);
  ignore (Passes.match_scale p_water);
  ignore (Passes.relinearize p_water);
  describe_fhe_ops "(e) ... + MODSWITCH/RELINEARIZE" p_water;
  let c = Compile.run ~waterline:30 (fig2 ()) in
  Printf.printf "  selected bit sizes: [%s]  (paper: q = {60, 60, 30, s_o} + special)\n"
    (String.concat "; " (List.map string_of_int c.Compile.params.Params.bit_sizes));
  hline ();
  Printf.printf "Figure 3 (x^2 + x at 2^30): MATCH-SCALE avoids rescale/modswitch entirely\n";
  let fig3 () =
    let b = B.create ~name:"x2px" ~vec_size:8 () in
    let x = B.input b ~scale:30 "x" in
    let open B.Infix in
    B.output b "out" ~scale:30 ((x * x) + x);
    B.program b
  in
  let c3 = Compile.run (fig3 ()) in
  describe_fhe_ops "(c) compiled" c3.Compile.program;
  Printf.printf "  selected bit sizes: [%s]  (paper: q = {2^60, s_o} + special)\n"
    (String.concat "; " (List.map string_of_int c3.Compile.params.Params.bit_sizes));
  hline ();
  Printf.printf "Figure 5 (x^2 + x + x at 2^60): eager shares one MODSWITCH, lazy needs two\n";
  let fig5 () =
    let b = B.create ~name:"x2pxpx" ~vec_size:8 () in
    let x = B.input b ~scale:60 "x" in
    let open B.Infix in
    B.output b "out" ~scale:30 ((x * x) + x + x);
    B.program b
  in
  List.iter
    (fun (label, policy) ->
      let p = Ir.copy (fig5 ()) in
      Passes.transform ~policy p;
      describe_fhe_ops label p)
    [ ("(c) EAGER-MODSWITCH", Passes.Eva); ("(b) LAZY-MODSWITCH", Passes.Lazy_insertion) ]

(* ------------------------------------------------------------------ *)
(* Table 6: encryption parameters selected by CHET vs EVA              *)
(* ------------------------------------------------------------------ *)

let table6 () =
  header "Table 6: encryption parameters selected (CHET policy vs EVA)";
  Printf.printf "%-18s | %-22s | %-22s | %-22s\n" "" "this repo: CHET-style" "this repo: EVA" "paper: CHET / EVA";
  Printf.printf "%-18s | %6s %6s %4s | %6s %6s %4s |\n" "Model" "logN" "logQ" "r" "logN" "logQ" "r";
  hline ();
  List.iter
    (fun net ->
      let chet = (compiled_net net `Chet).compiled.Compile.params in
      let eva = (compiled_net net `Eva).compiled.Compile.params in
      let (pn1, pq1, pr1), (pn2, pq2, pr2) = List.assoc net.N.net_name paper_table6 in
      Printf.printf "%-18s | %6d %6d %4d | %6d %6d %4d | %d/%d %d/%d %d/%d\n" net.N.net_name chet.Params.log_n
        chet.Params.log_q
        (List.length chet.Params.bit_sizes)
        eva.Params.log_n eva.Params.log_q
        (List.length eva.Params.bit_sizes)
        pn1 pn2 pq1 pq2 pr1 pr2)
    Nets.all;
  Printf.printf
    "\nShape target: EVA needs no larger log Q and strictly fewer modulus\nelements r than the per-kernel policy on every network.\n"

(* ------------------------------------------------------------------ *)
(* Table 4: scales and encrypted-inference agreement                   *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table 4: scales and accuracy of encrypted inference (mini networks, measured)";
  Printf.printf
    "Networks execute end to end under the simulated scheme at reduced,\ninsecure degree (2^10); agreement is argmax match with plaintext\ninference over random images and weights (the paper's Industrial\nnetwork is evaluated exactly this way).\n\n";
  Printf.printf "%-16s | %-17s | %-9s | %-11s | %-11s\n" "Model" "scales (in/w/out)" "mode" "agreement" "max |err|";
  hline ();
  let images = 3 in
  List.iter
    (fun net ->
      let sc = Nets.scales_for net in
      List.iter
        (fun mode ->
          let { lowered; compiled; _ } = compiled_net net mode in
          let st = Random.State.make [| 2026 |] in
          let w = N.random_weights net ~seed:1 in
          let size = net.N.input_channels * net.N.input_height * net.N.input_width in
          let engine = ref None in
          let agree = ref 0 and maxerr = ref 0.0 in
          for _ = 1 to images do
            let image = Array.init size (fun _ -> Random.State.float st 2.0 -. 1.0) in
            let bindings = N.bindings lowered image in
            let e =
              match !engine with
              | None ->
                  let e = Executor.prepare ~ignore_security:true ~log_n:10 compiled bindings in
                  engine := Some e;
                  e
              | Some e -> Executor.rebind e compiled bindings
            in
            engine := Some e;
            let outputs, _ = Executor.decode e (Executor.run_graph e compiled) in
            let enc = N.read_outputs lowered outputs in
            let plain = N.infer_plain net w image in
            if T.argmax plain = T.argmax enc then incr agree;
            Array.iteri (fun i v -> maxerr := Float.max !maxerr (Float.abs (v -. plain.(i)))) enc
          done;
          Printf.printf "%-16s | %2d / %2d / %2d      | %-9s | %d/%d         | %.2e\n" net.N.net_name sc.N.cipher
            sc.N.weight sc.N.output
            (match mode with `Eva -> "EVA" | `Chet -> "CHET-style")
            !agree images !maxerr)
        [ `Chet; `Eva ])
    Nets.minis;
  Printf.printf "\nPaper: encrypted and unencrypted accuracy differ negligibly for both\ncompilers (e.g. LeNet-5-medium 99.07%% CHET vs 99.09%% EVA).\n"

(* ------------------------------------------------------------------ *)
(* Table 5: average latency CHET vs EVA                                *)
(* ------------------------------------------------------------------ *)

let group_by_chain compiled =
  (* Kernel proxy for the bulk-synchronous model: nodes grouped by their
     rescale-chain length (one chain element per kernel under the
     per-kernel policy). *)
  let chains = Analysis.chains compiled.Compile.program in
  let ty = Analysis.types compiled.Compile.program in
  fun n ->
    if Hashtbl.find ty n.Ir.id <> Ir.Cipher then 0
    else match Hashtbl.find_opt chains n.Ir.id with Some c -> List.length c | None -> 0

(* The executors run a hoist group on one worker, and [Cost.program_costs]
   prices its non-leader members at the per-key apply only: the makespan
   model must schedule each group as one task to match both. *)
let hoist_clusters compiled =
  Makespan.hoist_clusters (Eva_core.Optimize.rotation_groups compiled.Compile.program)

let table5 () =
  header "Table 5: average inference latency, CHET vs EVA";
  Printf.printf
    "Modeled at 56 workers from per-op costs calibrated on this machine:\nEVA uses whole-program dynamic scheduling, the CHET baseline per-kernel\nbulk-synchronous scheduling (as in the paper's runtimes). Mini networks\nare also measured end to end on one core.\n\n";
  let coeffs = Cost.calibrate ~log_n:12 () in
  Printf.printf "%-18s | %10s | %10s | %7s | %s\n" "Model" "CHET (s)" "EVA (s)" "speedup" "paper: CHET EVA speedup";
  hline ();
  List.iter
    (fun net ->
      let chet = compiled_net net `Chet in
      let eva = compiled_net net `Eva in
      let model c ~bulk =
        let costs = Cost.program_costs coeffs c.compiled in
        let cost n = Option.value (Hashtbl.find_opt costs n.Ir.id) ~default:0.0 in
        if bulk then
          (Makespan.simulate_bulk_synchronous c.compiled.Compile.program ~cost ~workers:56
             ~group:(group_by_chain c.compiled))
            .Makespan.makespan
        else
          (Makespan.simulate ~clusters:(hoist_clusters c.compiled) c.compiled.Compile.program ~cost
             ~workers:56)
            .Makespan.makespan
      in
      let t_chet = model chet ~bulk:true and t_eva = model eva ~bulk:false in
      let pc, pe = List.assoc net.N.net_name paper_table5 in
      Printf.printf "%-18s | %10.2f | %10.2f | %6.1fx | %.1f %.1f %.1fx\n" net.N.net_name t_chet t_eva
        (t_chet /. t_eva) pc pe (pc /. pe))
    Nets.all;
  hline ();
  Printf.printf "Measured on one core (mini networks, reduced degree 2^10):\n";
  List.iter
    (fun net ->
      let run mode =
        let { lowered; compiled; _ } = compiled_net net mode in
        let image = Array.init (net.N.input_channels * net.N.input_height * net.N.input_width) (fun i -> Float.sin (float_of_int i)) in
        let bindings = N.bindings lowered image in
        let e = Executor.prepare ~ignore_security:true ~log_n:10 compiled bindings in
        (Executor.run_graph e compiled).Executor.elapsed_seconds
      in
      let t_chet = run `Chet and t_eva = run `Eva in
      Printf.printf "%-18s | CHET-style %6.2fs | EVA %6.2fs | speedup %.2fx\n" net.N.net_name t_chet t_eva
        (t_chet /. t_eva))
    Nets.minis

(* ------------------------------------------------------------------ *)
(* Table 7: compilation / context / encrypt / decrypt times            *)
(* ------------------------------------------------------------------ *)

let table7 () =
  header "Table 7: compilation, encryption context, encrypt and decrypt times (EVA)";
  Printf.printf
    "Context time covers key generation at the selected (secure) degree\nwith the relinearization key and 2 Galois keys (the paper generates\nevery rotation key; per-key cost scales linearly).\n\n";
  Printf.printf "%-18s | %9s | %9s | %9s | %9s | %s\n" "Model" "compile" "context" "encrypt" "decrypt"
    "paper (comp/ctx/enc/dec)";
  hline ();
  List.iter
    (fun net ->
      let { lowered; compiled; compile_seconds; _ } = compiled_net net `Eva in
      let params = compiled.Compile.params in
      let t0 = Unix.gettimeofday () in
      let ctx =
        Eva_ckks.Context.make ~n:(1 lsl params.Params.log_n) ~data_bits:params.Params.context_data_bits
          ~special_bits:params.Params.special_bits ()
      in
      let rng = Random.State.make [| 9 |] in
      let galois_elts =
        List.filteri (fun i _ -> i < 2) params.Params.rotations
        |> List.map (fun s -> Eva_ckks.Context.galois_elt_rotate ctx (if s >= 0 then s else Eva_ckks.Context.slots ctx + s))
      in
      let secret, keyset = Eva_ckks.Keys.generate ctx rng ~galois_elts in
      let context_s = Unix.gettimeofday () -. t0 in
      (* Encrypt / decrypt one input ciphertext. *)
      let vs = lowered.N.program.Ir.vec_size in
      let v = Array.init vs (fun i -> Float.cos (float_of_int i)) in
      let t1 = Unix.gettimeofday () in
      let pt = Eva_ckks.Eval.encode ctx ~level:(Eva_ckks.Context.chain_length ctx) ~scale:(Float.ldexp 1.0 25) v in
      let ct = Eva_ckks.Eval.encrypt ctx keyset rng pt in
      let encrypt_s = Unix.gettimeofday () -. t1 in
      let t2 = Unix.gettimeofday () in
      let _ = Eva_ckks.Eval.decrypt ctx secret ct in
      let decrypt_s = Unix.gettimeofday () -. t2 in
      let pc, px, pe, pd = List.assoc net.N.net_name paper_table7 in
      Printf.printf "%-18s | %8.2fs | %8.2fs | %8.3fs | %8.3fs | %.2f/%.2f/%.2f/%.2f\n" net.N.net_name
        compile_seconds context_s encrypt_s decrypt_s pc px pe pd;
      Gc.compact ())
    Nets.all

(* ------------------------------------------------------------------ *)
(* Table 8: applications                                               *)
(* ------------------------------------------------------------------ *)

let table8 () =
  header "Table 8: arithmetic, statistical ML and image processing applications";
  Printf.printf "Executed at the selected (secure) parameters on one core.\n\n";
  Printf.printf "%-28s | %6s | %4s | %9s | %s\n" "Application" "vec" "LoC" "time (s)" "paper LoC / time";
  hline ();
  List.iter
    (fun app ->
      let p = app.Apps.build () in
      let compiled = Compile.run p in
      let inputs = app.Apps.gen_inputs (Random.State.make [| 4 |]) in
      let e = Executor.prepare compiled inputs in
      let outputs, t = Executor.decode e (Executor.run_graph e compiled) in
      let expect = Reference.execute p inputs in
      let err = Executor.max_abs_error outputs expect in
      let ploc, ptime = List.assoc app.Apps.app_name paper_table8 in
      Printf.printf "%-28s | %6d | %4d | %9.3f | %d / %.3f   (max err %.1e)\n" app.Apps.app_name app.Apps.vec_size
        app.Apps.loc t.Executor.execute_seconds ploc ptime err;
      Gc.compact ())
    Apps.all

(* ------------------------------------------------------------------ *)
(* Figure 7: strong scaling                                            *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  header "Figure 7: strong scaling, CHET vs EVA (modeled makespan, log-log in the paper)";
  let coeffs = Cost.calibrate ~log_n:12 () in
  let workers = [ 1; 7; 14; 28; 56 ] in
  let nets =
    List.filter
      (fun n -> List.mem n.N.net_name [ "LeNet-5-medium"; "LeNet-5-large"; "Industrial"; "SqueezeNet-CIFAR" ])
      Nets.all
  in
  List.iter
    (fun net ->
      Printf.printf "\n%s (seconds):\n  %-10s" net.N.net_name "workers";
      List.iter (fun w -> Printf.printf " %8d" w) workers;
      let chet = compiled_net net `Chet in
      let eva = compiled_net net `Eva in
      let series label c ~bulk =
        Printf.printf "\n  %-10s" label;
        let costs = Cost.program_costs coeffs c.compiled in
        let cost n = Option.value (Hashtbl.find_opt costs n.Ir.id) ~default:0.0 in
        let times =
          List.map
            (fun w ->
              let s =
                if bulk then
                  Makespan.simulate_bulk_synchronous c.compiled.Compile.program ~cost ~workers:w
                    ~group:(group_by_chain c.compiled)
                else
                  Makespan.simulate ~clusters:(hoist_clusters c.compiled) c.compiled.Compile.program
                    ~cost ~workers:w
              in
              s.Makespan.makespan)
            workers
        in
        List.iter (fun t -> Printf.printf " %8.2f" t) times;
        times
      in
      let tc = series "CHET" chet ~bulk:true in
      let te = series "EVA" eva ~bulk:false in
      Printf.printf "\n  EVA self-speedup at 56 workers: %.1fx (paper average: 18.6x)\n"
        (List.nth te 0 /. List.nth te 4);
      Printf.printf "  EVA vs CHET at 56 workers: %.1fx\n" (List.nth tc 4 /. List.nth te 4))
    nets

(* ------------------------------------------------------------------ *)
(* Figure 9: measured parallel scaling (the real executor, not the     *)
(* model)                                                              *)
(* ------------------------------------------------------------------ *)

let figure9 () =
  header "Figure 9: measured vs modeled parallel scaling (Parallel.execute_on on OCaml 5 domains)";
  Printf.printf
    "The deep benchmarks (mini networks) run end to end through the real\n\
     parallel executor at reduced degree 2^10, workers 1/2/4/8; the model\n\
     is Makespan.simulate with costs calibrated at the same degree. The\n\
     executor's ready list uses the same bottom-level priority as the\n\
     model. This machine reports %d usable core(s): measured speedup\n\
     saturates there, while the model assumes ideal hardware.\n\n"
    (Domain.recommended_domain_count ());
  let coeffs = Cost.calibrate ~log_n:10 () in
  (* Smoke: mini-LeNet at 1 and 2 workers only. Every run must decrypt
     bit-identically to the 1-worker run — the schedule is the only
     thing the worker count may change. *)
  let workers = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  List.iter
    (fun net ->
      let { lowered; compiled; _ } = compiled_net net `Eva in
      let image =
        Array.init
          (net.N.input_channels * net.N.input_height * net.N.input_width)
          (fun i -> Float.sin (float_of_int i))
      in
      let bindings = N.bindings lowered image in
      let engine = Executor.prepare ~ignore_security:true ~log_n:10 compiled bindings in
      let costs = Cost.program_costs ~log_n:10 coeffs compiled in
      let cost n = Option.value (Hashtbl.find_opt costs n.Ir.id) ~default:0.0 in
      Printf.printf "%s (%d nodes):\n" net.N.net_name (Ir.node_count compiled.Compile.program);
      Printf.printf "  %-7s | %11s %8s | %11s %8s | %s\n" "workers" "measured(s)" "speedup" "modeled(s)"
        "speedup" "peak live";
      let base_measured = ref 0.0 and base_modeled = ref 0.0 and base_outputs = ref [] in
      List.iter
        (fun w ->
          let r = Parallel.execute_on ~cost ~workers:w engine compiled in
          let measured = r.Parallel.timings.Executor.execute_seconds in
          let modeled =
            (Makespan.simulate ~clusters:(hoist_clusters compiled) compiled.Compile.program ~cost
               ~workers:w)
              .Makespan.makespan
          in
          if w = 1 then begin
            base_measured := measured;
            base_modeled := modeled;
            base_outputs := r.Parallel.outputs
          end
          else if r.Parallel.outputs <> !base_outputs then
            failwith (Printf.sprintf "figure9: %s at %d workers differs from 1 worker" net.N.net_name w);
          Printf.printf "  %-7d | %11.3f %7.2fx | %11.3f %7.2fx | %d\n" w measured
            (!base_measured /. measured) modeled (!base_modeled /. modeled) r.Parallel.peak_live_values)
        workers;
      hline ())
    (if !smoke then [ Nets.mini_lenet ] else Nets.minis);
  Printf.printf
    "Shape target: measured speedup follows the modeled curve up to the\n\
     machine's core count and flattens beyond it; peak live values grow\n\
     with the width the schedule exposes (more workers keep more\n\
     intermediates in flight) but stay far below the node count — the\n\
     release path frees dead intermediates regardless of schedule.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: insertion-policy choices the design section motivates     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation 1: eager vs lazy modswitch insertion (Section 5.3)";
  Printf.printf
    "Networks have uniform layer structure (no imbalanced paths), so the\npolicies coincide there; the applications and power sums exercise the\nimbalance that motivates the pass.\n\n";
  Printf.printf "%-28s | %-22s | %-22s\n" "Program" "eager (logQ, r, #MS)" "lazy (logQ, r, #MS)";
  hline ();
  let power_sum =
    let b = B.create ~name:"power-sum-x..x8" ~vec_size:64 () in
    let x = B.input b ~scale:40 "x" in
    let terms = List.init 8 (fun k -> B.power x (k + 1)) in
    B.output b "out" ~scale:30 (List.fold_left B.add (List.hd terms) (List.tl terms));
    B.program b
  in
  let programs =
    ("power sum x + ... + x^8", power_sum)
    :: List.map (fun app -> (app.Apps.app_name, app.Apps.build ())) Apps.all
  in
  List.iter
    (fun (name, p) ->
      let stats policy =
        let c = Compile.run ~policy p in
        ( c.Compile.params.Params.log_q,
          List.length c.Compile.params.Params.bit_sizes,
          count c.Compile.program (function Ir.Mod_switch -> true | _ -> false) )
      in
      let eq, er, em = stats Passes.Eva in
      let lq, lr, lm = stats Passes.Lazy_insertion in
      Printf.printf "%-28s | %6d %4d %4d      | %6d %4d %4d\n" name eq er em lq lr lm)
    programs;
  Printf.printf
    "\nBoth policies select identical parameters; eager insertion places\nMODSWITCH at the earliest feasible edge and shares ladders between\nconsumers, so operands reach binary operations at smaller moduli and\nrun cheaper (cf. Figure 5: one shared switch instead of one per add).\n";
  header "Ablation 2: waterline rescaling vs no rescaling (Section 4.2)";
  Printf.printf "%-12s | %-22s | %-22s\n" "Program" "waterline (logQ, logN)" "no rescale (logQ, logN)";
  hline ();
  List.iter
    (fun depth ->
      let prog () =
        let b = B.create ~name:"chain" ~vec_size:64 () in
        let x = B.input b ~scale:30 "x" in
        B.output b "out" ~scale:30 (B.power x (1 lsl depth));
        B.program b
      in
      let with_w = Compile.run (prog ()) in
      let no_rescale =
        (* A waterline no multiply can reach disables the pass. *)
        match Compile.run ~waterline:10000 (prog ()) with
        | c -> Printf.sprintf "%6d  2^%d" c.Compile.params.Params.log_q c.Compile.params.Params.log_n
        | exception Params.Selection_error _ -> "exceeds every degree"
      in
      Printf.printf "x^%-10d | %6d  2^%-12d | %s\n" (1 lsl depth) with_w.Compile.params.Params.log_q
        with_w.Compile.params.Params.log_n no_rescale)
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\nWithout RESCALE, log Q grows linearly in the number of multiplications\n(exponentially in depth) instead of linearly in depth.\n"

(* ------------------------------------------------------------------ *)
(* Auto-vectorization: naive scalar IR vs packed rotation trees        *)
(* ------------------------------------------------------------------ *)

(* A naive scalar program pays one ciphertext per element: a k-element
   dot product is 2k encrypted inputs, k cipher multiplies and a k-term
   add chain. Passes.vectorize packs the elements into lanes of one
   ciphertext and lowers the fold to a log2(span)-step rotate-and-sum,
   so the packed program encrypts 2 ciphertexts and runs 1 multiply +
   log2(k) rotations. Measured per request on a warm engine (rebind +
   evaluate + decrypt — the serving path), both compiles checked
   against Reference on the same bindings.
   Acceptance target (k = 64 dot): >= 10x wall-clock, >= 8x fewer
   input ciphertexts. *)
let vectorize_bench () =
  header "Auto-vectorization: packed rotation-tree SIMD vs naive scalar IR";
  let log_n = if !smoke then 9 else 12 in
  let reps = if !smoke then 2 else 5 in
  let time_loop reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let st = Random.State.make [| 53 |] in
  let cipher_inputs p =
    count p (function Ir.Input (Ir.Cipher, _) -> true | _ -> false)
  in
  (* Per-request wall clock on a warm engine: re-encrypt the inputs,
     evaluate the graph, decrypt the outputs — everything a served
     request pays after keygen. *)
  let measure ~vectorize p bindings =
    let c = Compile.run ~vectorize p in
    let engine = Executor.prepare ~seed:11 ~ignore_security:true ~log_n c bindings in
    let s = Executor.run_graph engine c in
    let outputs = Compile.unpack_outputs c (fst (Executor.decode engine s)) in
    let err = Executor.max_abs_error outputs (Reference.execute p bindings) in
    assert (err < 0.05);
    let secs =
      time_loop reps (fun () ->
          let e = Executor.rebind ~seed:12 engine c bindings in
          ignore (Compile.unpack_outputs c (fst (Executor.decode e (Executor.run_graph e c)))))
    in
    (c, s.Executor.op_counts, secs, err)
  in
  let report title p bindings =
    Printf.printf "%s\n" title;
    Printf.printf "  %-10s | %8s | %8s | %7s | %7s | %9s | %9s\n" "pipeline" "ct in" "multiply"
      "relin" "rotate" "time (ms)" "max err";
    let cn, on, tn, en = measure ~vectorize:false p bindings in
    let cv, ov, tv, ev = measure ~vectorize:true p bindings in
    let line tag c (o : Executor.op_counts) t e =
      Printf.printf "  %-10s | %8d | %8d | %7d | %7d | %9.2f | %9.1e\n" tag
        (cipher_inputs c.Compile.program) o.Executor.multiplies o.Executor.relinearizations
        o.Executor.rotations (t *. 1e3) e
    in
    line "naive" cn on tn en;
    line "vectorized" cv ov tv ev;
    Printf.printf "  speedup: %.2fx, input ciphertexts %d -> %d\n\n" (tn /. tv)
      (cipher_inputs cn.Compile.program) (cipher_inputs cv.Compile.program);
    assert (cv.Compile.packing <> None);
    (cipher_inputs cn.Compile.program, cipher_inputs cv.Compile.program, tn /. tv)
  in
  (* k = 64 scalar dot product: every element its own ciphertext. *)
  let k = 64 in
  let b = B.create ~name:"sdot64" ~vec_size:1 () in
  let term i =
    B.mul
      (B.input b ~scale:30 (Printf.sprintf "x%d" i))
      (B.input b ~scale:30 (Printf.sprintf "y%d" i))
  in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "dot" ~scale:30 sum;
  let dot_p = B.program b in
  let dot_bindings =
    List.init (2 * k) (fun i ->
        ( (if i < k then Printf.sprintf "x%d" i else Printf.sprintf "y%d" (i - k)),
          Reference.Scal (Random.State.float st 2.0 -. 1.0) ))
  in
  let dot_naive, dot_packed, dot_speedup =
    report (Printf.sprintf "%d-element scalar dot product (N = 2^%d):" k log_n) dot_p dot_bindings
  in
  (* Per-element polynomial 0.5 x^2 + x over 16 elements: an output
     group (no reduction) — 16 chains collapse to one SIMD chain. *)
  let m = 16 in
  let b = B.create ~name:"spoly16" ~vec_size:1 () in
  let half = B.const_scalar b ~scale:30 0.5 in
  List.iteri
    (fun i x ->
      B.output b (Printf.sprintf "y%d" i) ~scale:30 (B.add (B.mul (B.mul x x) half) x))
    (List.init m (fun i -> B.input b ~scale:30 (Printf.sprintf "x%d" i)));
  let poly_p = B.program b in
  let poly_bindings =
    List.init m (fun i -> (Printf.sprintf "x%d" i, Reference.Scal (Random.State.float st 2.0 -. 1.0)))
  in
  let poly_naive, poly_packed, poly_speedup =
    report
      (Printf.sprintf "per-element polynomial 0.5x^2 + x, %d elements (N = 2^%d):" m log_n)
      poly_p poly_bindings
  in
  assert (dot_naive >= 8 * dot_packed);
  assert (!smoke || dot_speedup >= 10.0);
  Printf.printf
    "Acceptance: dot input ciphertexts %d -> %d (>= 8x), speedup %.2fx (target >= 10x);\n"
    dot_naive dot_packed dot_speedup;
  Printf.printf "            poly input ciphertexts %d -> %d, speedup %.2fx.\n" poly_naive
    poly_packed poly_speedup

(* ------------------------------------------------------------------ *)
(* Cross-request slot batching: B requests in one ciphertext           *)
(* ------------------------------------------------------------------ *)

(* The batching acceptance experiment. A retrieval workload (a cipher
   query scored against a plaintext database row) is driven twice
   through identical inline daemons (pipeline 0 so the measurement is
   pure evaluation, not scheduling): once at max-batch 1, once at
   max-batch 8. An 8-wide
   batch interleaves eight requests into one ciphertext and pays one
   evaluation for all of them — the homomorphic op count per execution
   is unchanged (lane-local rotations are just larger steps), so
   throughput should approach 8x. Every batched answer is asserted
   against the member's own plaintext dot product before any number is
   printed. Acceptance: >= 4x requests/sec at max-batch 8 vs 1, batched
   p99 <= 1.5x the unbatched p99. *)
let batch_bench () =
  header "Cross-request slot batching: 8 requests per ciphertext vs 1";
  let module Serve = Eva_schedule.Serve in
  let module Wire = Eva_ckks.Wire in
  let vs = if !smoke then 16 else 64 in
  let log_n = if !smoke then 9 else 11 in
  let requests = if !smoke then 24 else 96 in
  let rows = 8 in
  let b = B.create ~name:"retrieval" ~vec_size:vs () in
  let q = B.input b ~scale:30 "q" in
  let w = B.vector_input b ~scale:30 "w" in
  B.output b "score" ~scale:30 (B.sum_slots b ~span:vs (B.mul q w));
  let p = B.program b in
  let st = Random.State.make [| 2026 |] in
  let db = Array.init rows (fun _ -> Array.init vs (fun _ -> Random.State.float st 2.0 -. 1.0)) in
  let query id = Array.init vs (fun i -> Float.sin (float_of_int (id + i))) in
  let inputs id = [ ("q", query id); ("w", db.(id mod rows)) ] in
  let expected id =
    let q = query id and w = db.(id mod rows) in
    let s = ref 0.0 in
    Array.iteri (fun i x -> s := !s +. (x *. w.(i))) q;
    !s
  in
  let c = Compile.run p in
  Printf.printf
    "Encrypted dot product, vec %d, N = 2^%d, %d requests; inline daemons\n(pipeline 0), identical seeds, answers asserted against the plaintext\nreference before timing is reported.\n\n"
    vs log_n requests;
  let run_daemon ~max_batch =
    let extra_rotations =
      if max_batch > 1 then Compile.batch_rotations c ~max_lanes:max_batch else []
    in
    let engine = Executor.keygen ~seed:1 ~ignore_security:true ~log_n ~extra_rotations c in
    let config =
      { Serve.default_config with Serve.pipeline = 0; queue_depth = requests; max_batch }
    in
    let results = Hashtbl.create requests in
    let lock = Mutex.create () in
    let respond (r : Wire.response) =
      Mutex.lock lock;
      Hashtbl.replace results r.Wire.resp_id r.Wire.payload;
      Mutex.unlock lock
    in
    let t0 = Unix.gettimeofday () in
    let daemon = Serve.start ~config ~respond c engine in
    for id = 0 to requests - 1 do
      Serve.submit daemon { Wire.req_id = id; deadline_ms = None; req_inputs = inputs id }
    done;
    let stats = Serve.drain daemon in
    let wall = Unix.gettimeofday () -. t0 in
    for id = 0 to requests - 1 do
      match Hashtbl.find results id with
      | Ok outputs ->
          assert (
            Float.abs ((List.assoc "score" outputs).(0) -. expected id)
            < 1e-2 *. (1.0 +. Float.abs (expected id)))
      | Error d -> failwith (Eva_diag.Diag.to_string d)
      | exception Not_found -> failwith (Printf.sprintf "request %d never answered" id)
    done;
    let lat = Serve.latencies_ms daemon in
    Array.sort compare lat;
    let pct p =
      lat.(min (Array.length lat - 1) (int_of_float (float_of_int (Array.length lat) *. p)))
    in
    (float_of_int requests /. wall, pct 0.99, stats)
  in
  let rps1, p99_1, _ = run_daemon ~max_batch:1 in
  let rps8, p99_8, stats8 = run_daemon ~max_batch:8 in
  Printf.printf "  %-28s %10.2f req/s   p99 %7.1f ms\n" "max-batch 1 (unbatched)" rps1 p99_1;
  Printf.printf "  %-28s %10.2f req/s   p99 %7.1f ms  (%.1fx)\n" "max-batch 8" rps8 p99_8
    (rps8 /. rps1);
  let hist =
    stats8.Serve.batch_histogram |> Array.to_list
    |> List.mapi (fun i n -> (i + 1, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (w, n) -> Printf.sprintf "%dx%d-wide" n w)
    |> String.concat ", "
  in
  Printf.printf "  batched: %d executions (%s), slot utilization %.1f%%, dissolved %d\n"
    stats8.Serve.executions hist
    (100.0 *. Serve.slot_utilization stats8)
    stats8.Serve.batches_dissolved;
  Printf.printf
    "\nAcceptance: >= 4x req/s at max-batch 8 vs 1; batched p99 <= 1.5x unbatched p99.\n";
  assert (rps8 >= 4.0 *. rps1);
  assert (p99_8 <= 1.5 *. p99_1)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("figures235", figures235);
    ("table6", table6);
    ("table4", table4);
    ("table5", table5);
    ("table7", table7);
    ("table8", table8);
    ("figure7", figure7);
    ("figure9", figure9);
    ("ablation", ablation);
    ("vectorize", vectorize_bench);
    ("batch", batch_bench);
  ]

(* Every experiment reports its wall time in one uniform `name: X.Xs`
   line so EXPERIMENTS.md deltas are comparable across PRs. *)
let run_experiment (name, f) =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "\n%s: %.1fs\n" name (Unix.gettimeofday () -. t0)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  smoke := List.mem "--smoke" args;
  let args = List.filter (fun a -> a <> "--smoke") args in
  match args with
  | [] | [ "all" ] ->
      let t0 = Unix.gettimeofday () in
      List.iter run_experiment experiments;
      Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
  | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment (name, f)
          | None ->
              Printf.eprintf "unknown experiment %S (try 'list')\n" name;
              exit 1)
        names
