(* Per-layer probes of the traced run.  Each one times calls into a
   layer's public functions from outside the library; none of them runs
   in an untraced run. *)

open F90d_machine

let span = Meas.span
let reps = 3

type compile_probe = {
  parse_ms : float;
  sema_ms : float;
  front_alloc_mw : float;
  lower_ms : float;
  lower_alloc_mw : float;
  passes_ms : float;
  f77_bytes : int;
}

(* Front end, lowering, passes and F77 emission over [sources], summed.
   Each stage's time is the median of [reps] calls on the same input; its
   allocation is taken from the first call. *)
let compile sources =
  let stage name f =
    let a0 = Meas.alloc_words () in
    let first, dt0 = Meas.time (fun () -> span name f) in
    let words = Meas.alloc_words () -. a0 in
    let dts = List.init (reps - 1) (fun _ -> snd (Meas.time (fun () -> span name f))) in
    (first, Meas.median (dt0 :: dts), words)
  in
  List.fold_left
    (fun acc src ->
      let ast, parse_s, parse_w =
        stage "Parser.parse" (fun () -> F90d_frontend.Parser.parse ~file:"<bench>" src)
      in
      let env, sema_s, sema_w = stage "Sema.analyze" (fun () -> F90d_frontend.Sema.analyze ast) in
      let ir, lower_s, lower_w =
        stage "Lower.lower_program" (fun () -> F90d_codegen.Lower.lower_program env)
      in
      let opt_ir, passes_s, _ =
        stage "Passes.apply" (fun () -> F90d_opt.Passes.apply F90d_opt.Passes.all_on ir)
      in
      let f77 = span "Emit_f77.emit_program" (fun () -> F90d_ir.Emit_f77.emit_program opt_ir) in
      {
        parse_ms = acc.parse_ms +. (1000. *. parse_s);
        sema_ms = acc.sema_ms +. (1000. *. sema_s);
        front_alloc_mw = acc.front_alloc_mw +. ((parse_w +. sema_w) /. 1e6);
        lower_ms = acc.lower_ms +. (1000. *. lower_s);
        lower_alloc_mw = acc.lower_alloc_mw +. (lower_w /. 1e6);
        passes_ms = acc.passes_ms +. (1000. *. passes_s);
        f77_bytes = acc.f77_bytes + String.length f77;
      })
    {
      parse_ms = 0.;
      sema_ms = 0.;
      front_alloc_mw = 0.;
      lower_ms = 0.;
      lower_alloc_mw = 0.;
      passes_ms = 0.;
      f77_bytes = 0;
    }
    sources

let config nprocs = Engine.config ~model:Model.ipsc860 ~topology:Topology.Hypercube nprocs

let median_ms name f =
  Meas.median (List.init reps (fun _ -> 1000. *. snd (Meas.time (fun () -> span name f))))

(* An Engine.run whose node programs do nothing: the machine's fixed cost
   of creating and retiring [nprocs] fibers. *)
let spawn_ms nprocs =
  median_ms "Engine.run(empty)" (fun () -> ignore (Engine.run (config nprocs) (fun _ -> ())))

(* Engine.run + Collectives.team_all + one machine-wide broadcast. *)
let bcast_ms nprocs =
  median_ms "Collectives.broadcast" (fun () ->
      ignore
        (Engine.run (config nprocs) (fun ctx ->
             let rctx = F90d_runtime.Rctx.make ctx (F90d_dist.Grid.make [| nprocs |]) in
             let team = F90d_runtime.Collectives.team_all rctx in
             ignore
               (F90d_runtime.Collectives.broadcast rctx team ~root:0
                  (Message.Scalar (F90d_base.Scalar.Real 1.0))))))

(* Allocation and collector activity of one call. *)
type gc_delta = { alloc_w : float; direct_major_w : float; majors : int }

let gc_delta f =
  let a0 = Meas.alloc_words () and d0 = Meas.direct_major_words () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  let d =
    {
      alloc_w = Meas.alloc_words () -. a0;
      direct_major_w = Meas.direct_major_words () -. d0;
      majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    }
  in
  (r, d)

let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.
