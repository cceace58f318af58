open F90d_base
open F90d
open F90d_machine

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile_run ?flags ?(nprocs = 4) ?(model = Model.ideal) src =
  let compiled = Driver.compile ?flags src in
  Driver.run ~model ~nprocs compiled

let check_array result name expected =
  let got = Driver.final result name in
  if not (Ndarray.approx_equal ~eps:1e-6 got expected) then
    Alcotest.failf "array %s mismatch:@.got      %s@.expected %s" name
      (Format.asprintf "%a" Ndarray.pp got)
      (Format.asprintf "%a" Ndarray.pp expected)

let reals_1d lb n f =
  Ndarray.init Scalar.Kreal ~lb:[| lb |] [| n |] (fun g -> Scalar.Real (f g.(0)))

let reals_2d n m f =
  Ndarray.init Scalar.Kreal [| n; m |] (fun g -> Scalar.Real (f g.(0) g.(1)))

(* ------------------------------------------------------------------ *)
(* Local (no communication) patterns                                   *)
(* ------------------------------------------------------------------ *)

let test_local_forall () =
  let r =
    compile_run
      {|
      PROGRAM T1
      REAL A(12)
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:12) A(I) = 2*I
      END
      |}
  in
  check_array r "A" (reals_1d 1 12 (fun i -> float_of_int (2 * i)));
  (* without the final verification gathers the program is communication-free *)
  let quiet =
    Driver.run ~collect_finals:false ~nprocs:4
      (Driver.compile
         {|
         PROGRAM T1B
         REAL A(12)
C$       DISTRIBUTE A(BLOCK)
         FORALL (I = 1:12) A(I) = 2*I
         END
         |})
  in
  check_int "no messages for aligned forall" 0 quiet.Driver.stats.Stats.messages

let test_array_assignment_normalized () =
  let r =
    compile_run
      {|
      PROGRAM T2
      REAL A(10), B(10)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:10) B(I) = I
      A = 2*B + 1
      END
      |}
  in
  check_array r "A" (reals_1d 1 10 (fun i -> float_of_int ((2 * i) + 1)))

let test_section_assignment () =
  let r =
    compile_run
      {|
      PROGRAM T3
      REAL A(10), B(12)
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:12) B(I) = 10*I
      A(2:9) = B(3:10)
      END
      |}
  in
  (* B replicated, so the shifted read is local *)
  let expected =
    Ndarray.init Scalar.Kreal [| 10 |] (fun g ->
        if g.(0) >= 2 && g.(0) <= 9 then Scalar.Real (float_of_int (10 * (g.(0) + 1)))
        else Scalar.Real 0.)
  in
  check_array r "A" expected

(* ------------------------------------------------------------------ *)
(* Structured communication                                            *)
(* ------------------------------------------------------------------ *)

let test_overlap_shift_jacobi_like () =
  let r =
    compile_run
      {|
      PROGRAM T4
      REAL A(16), B(16)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:16) A(I) = I*I
      FORALL (I = 2:15) B(I) = 0.5*(A(I-1) + A(I+1))
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 16 |] (fun g ->
        let i = g.(0) in
        if i >= 2 && i <= 15 then
          Scalar.Real (0.5 *. float_of_int (((i - 1) * (i - 1)) + ((i + 1) * (i + 1))))
        else Scalar.Real 0.)
  in
  check_array r "B" expected

let test_temporary_shift_scalar_amount () =
  let r =
    compile_run
      {|
      PROGRAM T5
      INTEGER S
      REAL A(12), B(12)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      S = 5
      FORALL (I = 1:12) A(I) = 3*I
      FORALL (I = 1:7) B(I) = A(I+S)
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 12 |] (fun g ->
        if g.(0) <= 7 then Scalar.Real (float_of_int (3 * (g.(0) + 5))) else Scalar.Real 0.)
  in
  check_array r "B" expected

let test_multicast_2d () =
  let r =
    compile_run ~nprocs:4
      {|
      PROGRAM T6
C$    PROCESSORS P(2, 2)
      REAL A(4, 6), B(4, 6)
C$    TEMPLATE T(4, 6)
C$    ALIGN A(I, J) WITH T(I, J)
C$    ALIGN B(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      FORALL (I = 1:4, J = 1:6) B(I, J) = 100*I + J
      FORALL (I = 1:4, J = 1:6) A(I, J) = B(I, 3)
      END
      |}
  in
  check_array r "A" (reals_2d 4 6 (fun i _ -> float_of_int ((100 * i) + 3)))

let test_transfer_columns () =
  let r =
    compile_run ~nprocs:4
      {|
      PROGRAM T7
C$    PROCESSORS P(4)
      REAL A(4, 8), B(4, 8)
C$    TEMPLATE T(8)
C$    ALIGN A(I, J) WITH T(J)
C$    ALIGN B(I, J) WITH T(J)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:4, J = 1:8) B(I, J) = 10*I + J
      FORALL (I = 1:4) A(I, 8) = B(I, 3)
      END
      |}
  in
  let expected =
    reals_2d 4 8 (fun i j -> if j = 8 then float_of_int ((10 * i) + 3) else 0.)
  in
  check_array r "A" expected

(* ------------------------------------------------------------------ *)
(* Unstructured communication                                          *)
(* ------------------------------------------------------------------ *)

let test_precomp_read () =
  let r =
    compile_run
      {|
      PROGRAM T8
      REAL A(5), B(11)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(*)
C$    DISTRIBUTE B(BLOCK)
      FORALL (I = 1:11) B(I) = I + 100
      FORALL (I = 1:5) A(I) = B(2*I + 1)
      END
      |}
  in
  check_array r "A" (reals_1d 1 5 (fun i -> float_of_int ((2 * i) + 1 + 100)))

let test_gather_indirection () =
  let r =
    compile_run
      {|
      PROGRAM T9
      INTEGER V(8)
      REAL A(8), B(8)
C$    DISTRIBUTE A(BLOCK)
C$    DISTRIBUTE B(CYCLIC)
      FORALL (I = 1:8) V(I) = 9 - I
      FORALL (I = 1:8) B(I) = I*I
      FORALL (I = 1:8) A(I) = B(V(I))
      END
      |}
  in
  check_array r "A" (reals_1d 1 8 (fun i -> float_of_int ((9 - i) * (9 - i))))

let test_scatter_indirection () =
  let r =
    compile_run
      {|
      PROGRAM T10
      INTEGER U(8)
      REAL A(8), B(8)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:8) U(I) = 9 - I
      FORALL (I = 1:8) B(I) = 5*I
      FORALL (I = 1:8) A(U(I)) = B(I)
      END
      |}
  in
  (* A(9-i) = 5i  =>  A(j) = 5*(9-j) *)
  check_array r "A" (reals_1d 1 8 (fun j -> float_of_int (5 * (9 - j))))

let test_postcomp_affine_lhs () =
  let r =
    compile_run
      {|
      PROGRAM T11
      REAL A(16), B(8)
C$    DISTRIBUTE A(BLOCK)
C$    DISTRIBUTE B(BLOCK)
      FORALL (I = 1:8) B(I) = I + 0.5
      FORALL (I = 1:8) A(2*I) = B(I)
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 16 |] (fun g ->
        if g.(0) mod 2 = 0 then Scalar.Real (float_of_int (g.(0) / 2) +. 0.5) else Scalar.Real 0.)
  in
  check_array r "A" expected

(* ------------------------------------------------------------------ *)
(* Replicated lhs / slab broadcast                                     *)
(* ------------------------------------------------------------------ *)

let test_replicated_lhs_multicast () =
  let r =
    compile_run
      {|
      PROGRAM T12
      REAL W(6), A(6, 8)
C$    DISTRIBUTE A(*, BLOCK)
      FORALL (I = 1:6, J = 1:8) A(I, J) = 10*I + J
      FORALL (I = 1:6) W(I) = A(I, 5)
      END
      |}
  in
  check_array r "W" (reals_1d 1 6 (fun i -> float_of_int ((10 * i) + 5)))

let test_replicated_lhs_concat () =
  let r =
    compile_run
      {|
      PROGRAM T13
      REAL W(8), B(8)
C$    DISTRIBUTE B(CYCLIC)
      FORALL (I = 1:8) B(I) = I*I
      FORALL (I = 1:8) W(I) = B(I) + 1
      END
      |}
  in
  check_array r "W" (reals_1d 1 8 (fun i -> float_of_int ((i * i) + 1)))

(* ------------------------------------------------------------------ *)
(* WHERE, masks, control flow                                          *)
(* ------------------------------------------------------------------ *)

let test_where_elsewhere () =
  let r =
    compile_run
      {|
      PROGRAM T14
      REAL A(10), B(10)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:10) A(I) = I - 5.5
      WHERE (A > 0.0)
        B = A
      ELSEWHERE
        B = -A
      END WHERE
      END
      |}
  in
  check_array r "B" (reals_1d 1 10 (fun i -> Float.abs (float_of_int i -. 5.5)))

let test_forall_mask () =
  let r =
    compile_run
      {|
      PROGRAM T15
      REAL A(10)
C$    DISTRIBUTE A(CYCLIC)
      FORALL (I = 1:10, MOD(I, 2) == 0) A(I) = I
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 10 |] (fun g ->
        if g.(0) mod 2 = 0 then Scalar.Real (float_of_int g.(0)) else Scalar.Real 0.)
  in
  check_array r "A" expected

let test_do_if_scalar () =
  let r =
    compile_run
      {|
      PROGRAM T16
      INTEGER K
      REAL S
      REAL A(8)
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:8) A(I) = I
      S = 0.0
      DO K = 1, 8
        IF (A(K) > 4.0) THEN
          S = S + A(K)
        END IF
      END DO
      END
      |}
  in
  checkb "scalar accumulation over distributed reads" true
    (Scalar.equal (Driver.final_scalar r "S") (Scalar.Real 26.))

(* ------------------------------------------------------------------ *)
(* Intrinsics through the compiler                                     *)
(* ------------------------------------------------------------------ *)

let test_reduction_intrinsics () =
  let r =
    compile_run
      {|
      PROGRAM T17
      REAL A(9), S, MX
      INTEGER LOC
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:9) A(I) = I
      S = SUM(A)
      MX = MAXVAL(A)
      LOC = MAXLOC(A)
      END
      |}
  in
  checkb "sum" true (Scalar.equal (Driver.final_scalar r "S") (Scalar.Real 45.));
  checkb "maxval" true (Scalar.equal (Driver.final_scalar r "MX") (Scalar.Real 9.));
  check_int "maxloc" 9 (Scalar.to_int (Driver.final_scalar r "LOC"))

let test_cshift_mover () =
  let r =
    compile_run
      {|
      PROGRAM T18
      REAL A(8), B(8)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:8) A(I) = I
      B = CSHIFT(A, 2)
      END
      |}
  in
  check_array r "B" (reals_1d 1 8 (fun i -> float_of_int ((((i - 1) + 2) mod 8) + 1)))

let test_matmul_transpose () =
  let r =
    compile_run ~nprocs:4
      {|
      PROGRAM T19
C$    PROCESSORS P(2, 2)
      REAL A(3, 4), B(4, 2), C(3, 2), AT(4, 3)
C$    TEMPLATE T(4, 4)
C$    ALIGN A(I, J) WITH T(I, J)
C$    ALIGN B(I, J) WITH T(I, J)
C$    ALIGN C(I, J) WITH T(I, J)
C$    ALIGN AT(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      FORALL (I = 1:3, J = 1:4) A(I, J) = I + J
      FORALL (I = 1:4, J = 1:2) B(I, J) = I*J
      C = MATMUL(A, B)
      AT = TRANSPOSE(A)
      END
      |}
  in
  let a i j = float_of_int (i + j) and b i j = float_of_int (i * j) in
  let expected_c =
    reals_2d 3 2 (fun i j ->
        let acc = ref 0. in
        for k = 1 to 4 do
          acc := !acc +. (a i k *. b k j)
        done;
        !acc)
  in
  check_array r "C" expected_c;
  check_array r "AT" (reals_2d 4 3 (fun i j -> a j i))

(* ------------------------------------------------------------------ *)
(* Subroutines and redistribution                                      *)
(* ------------------------------------------------------------------ *)

let test_dimensional_reductions () =
  let r =
    compile_run ~nprocs:4
      {|
      PROGRAM DR
      INTEGER, PARAMETER :: N = 6
      REAL A(6, 4), RS(4), CM(6)
C$    PROCESSORS P(2, 2)
C$    TEMPLATE T(6, 4)
C$    ALIGN A(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
C$    DISTRIBUTE RS(BLOCK)
C$    DISTRIBUTE CM(CYCLIC)
      FORALL (I = 1:6, J = 1:4) A(I, J) = 10*I + J
      RS = SUM(A, 1)
      CM = MAXVAL(A, 2)
      END
      |}
  in
  (* SUM over rows: RS(j) = sum_i (10i + j) = 210 + 6j *)
  check_array r "RS" (reals_1d 1 4 (fun j -> float_of_int (210 + (6 * j))));
  (* MAXVAL over columns: CM(i) = 10i + 4 *)
  check_array r "CM" (reals_1d 1 6 (fun i -> float_of_int ((10 * i) + 4)))

let test_call_with_redistribution () =
  let r =
    compile_run
      {|
      PROGRAM T20
      REAL A(12), S
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:12) A(I) = I
      CALL DOUBLER(A, S)
      END

      SUBROUTINE DOUBLER(X, TOTAL)
      REAL X(12), TOTAL
C$    DISTRIBUTE X(CYCLIC)
      X = 2*X
      TOTAL = SUM(X)
      END
      |}
  in
  check_array r "A" (reals_1d 1 12 (fun i -> float_of_int (2 * i)));
  checkb "sum computed in callee" true
    (Scalar.equal (Driver.final_scalar r "S") (Scalar.Real 156.))

let test_print_output () =
  let r =
    compile_run
      {|
      PROGRAM T21
      REAL X
      X = 1.5
      PRINT *, 'X is', X
      END
      |}
  in
  checkb "print output" true (r.Driver.outcome.F90d_exec.Interp.output = "\"X is\" 1.5\n")

(* ------------------------------------------------------------------ *)
(* Distribution variants / determinism                                 *)
(* ------------------------------------------------------------------ *)

let test_cyclic_alignment_offset () =
  let r =
    compile_run
      {|
      PROGRAM T22
      REAL A(10), B(10)
C$    TEMPLATE T(12)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN B(I) WITH T(I + 2)
C$    DISTRIBUTE T(CYCLIC)
      FORALL (I = 1:10) B(I) = I
      FORALL (I = 3:9) A(I) = B(I-1) + 1
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 10 |] (fun g ->
        if g.(0) >= 3 && g.(0) <= 9 then Scalar.Real (float_of_int g.(0)) else Scalar.Real 0.)
  in
  check_array r "A" expected

let test_same_result_across_nprocs () =
  let src =
    {|
      PROGRAM T23
      REAL A(24), B(24)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:24) A(I) = MOD(7*I, 5) + 0.25
      FORALL (I = 2:23) B(I) = A(I+1) - A(I-1)
      B(1) = A(1)
      B(24) = A(24)
      END
      |}
  in
  let baseline = Driver.final (compile_run ~nprocs:1 src) "B" in
  List.iter
    (fun p ->
      let got = Driver.final (compile_run ~nprocs:p src) "B" in
      checkb (Printf.sprintf "same result on %d procs" p) true
        (Ndarray.approx_equal ~eps:1e-9 got baseline))
    [ 2; 3; 4; 6; 8 ]

let test_multicast_shift_end_to_end () =
  (* the paper's §5.3.1 example 3 through the whole pipeline, fused and
     unfused, against an elementwise oracle *)
  let src =
    {|
      PROGRAM MS
      INTEGER, PARAMETER :: N = 8
      INTEGER S
      REAL A(8, 8), B(8, 8)
C$    PROCESSORS P(2, 2)
C$    TEMPLATE T(8, 8)
C$    ALIGN A(I, J) WITH T(I, J)
C$    ALIGN B(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      S = 2
      FORALL (I = 1:N, J = 1:N) B(I, J) = 10*I + J
      FORALL (I = 1:N, J = 1:N-2) A(I, J) = B(3, J+S)
      END
      |}
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 8; 8 |] (fun g ->
        if g.(1) <= 6 then Scalar.Real (float_of_int (30 + g.(1) + 2)) else Scalar.Real 0.)
  in
  List.iter
    (fun flags ->
      let r = compile_run ~flags src in
      check_array r "A" expected)
    [ F90d_opt.Passes.all_on; F90d_opt.Passes.all_off ]

let test_power_method_intrinsics () =
  (* dense power iteration: MATMUL + SUM + elementwise normalisation *)
  let n = 6 and iters = 12 in
  let r =
    compile_run ~nprocs:4
      (Printf.sprintf
         {|
      PROGRAM POWER
      INTEGER, PARAMETER :: N = %d
      INTEGER T
      REAL A(%d, %d), X(%d, 1), Y(%d, 1), S
C$    PROCESSORS P(2, 2)
C$    TEMPLATE TT(%d, %d)
C$    ALIGN A(I, J) WITH TT(I, J)
C$    ALIGN X(I, J) WITH TT(I, J)
C$    ALIGN Y(I, J) WITH TT(I, J)
C$    DISTRIBUTE TT(BLOCK, BLOCK)
      FORALL (I = 1:N, J = 1:N) A(I, J) = 1.0 / (I + J)
      FORALL (I = 1:N) X(I, 1) = 1.0
      DO T = 1, %d
        Y = MATMUL(A, X)
        S = SUM(Y)
        FORALL (I = 1:N) X(I, 1) = Y(I, 1) / S
      END DO
      END
|}
         n n n n n n n iters)
  in
  (* oracle in OCaml *)
  let a = Array.init n (fun i -> Array.init n (fun j -> 1. /. float_of_int (i + j + 2))) in
  let x = ref (Array.make n 1.) in
  let s = ref 0. in
  for _ = 1 to iters do
    let y = Array.init n (fun i -> Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> a.(i).(j) *. v) !x)) in
    s := Array.fold_left ( +. ) 0. y;
    x := Array.map (fun v -> v /. !s) y
  done;
  Alcotest.(check (float 1e-9)) "dominant eigenvalue estimate" !s
    (Scalar.to_real (Driver.final_scalar r "S"));
  let gx = Driver.final r "X" in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9)) "eigenvector" v
        (Scalar.to_real (Ndarray.get gx [| i + 1; 1 |])))
    !x

let test_optimization_equivalence () =
  let src =
    {|
      PROGRAM T24
      REAL A(20), B(20)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:20) B(I) = I*I
      FORALL (I = 1:17) A(I) = B(I+2) + B(I+3)
      END
      |}
  in
  let with_opt = compile_run ~flags:F90d_opt.Passes.all_on src in
  let without = compile_run ~flags:F90d_opt.Passes.all_off src in
  checkb "same numerical result" true
    (Ndarray.approx_equal (Driver.final with_opt "A") (Driver.final without "A"));
  checkb "shift union saves messages" true
    (with_opt.Driver.stats.Stats.messages < without.Driver.stats.Stats.messages)

(* The serve daemon compiles on several worker domains at once.  Each
   program must still get the statement ids a lone compile gives it: with
   the id counters shared between domains, one program's reset handed
   another duplicate ids, and the interpreter's per-statement plan caches
   then mixed up statements. *)
let test_concurrent_compiles () =
  let sources =
    [
      Programs.gauss ~n:24;
      Programs.jacobi ~n:40 ~iters:2;
      Programs.irregular ~n:32;
      Programs.fft_butterfly ~n:64;
    ]
  in
  let sids src =
    List.concat_map
      (fun (_, (u : F90d_ir.Ir.unit_ir)) ->
        List.map (fun (p : F90d_ir.Ir.prov) -> p.pv_sid) (u.u_prov @ [ u.u_epilogue ]))
      (Driver.compile src).Driver.c_ir.F90d_ir.Ir.p_units
  in
  let want = List.map sids sources in
  let n = List.length sources in
  let domains =
    List.init 3 (fun k ->
        Domain.spawn (fun () ->
            List.init 40 (fun i ->
                let j = (i + k) mod n in
                (j, sids (List.nth sources j)))))
  in
  List.iter
    (fun d ->
      List.iter
        (fun (j, got) -> Alcotest.(check (list int)) "statement ids" (List.nth want j) got)
        (Domain.join d))
    domains

let () =
  Alcotest.run "f90d_compiler"
    [
      ( "local",
        [
          Alcotest.test_case "forall canonical" `Quick test_local_forall;
          Alcotest.test_case "array assignment" `Quick test_array_assignment_normalized;
          Alcotest.test_case "sections" `Quick test_section_assignment;
        ] );
      ( "structured",
        [
          Alcotest.test_case "overlap shift" `Quick test_overlap_shift_jacobi_like;
          Alcotest.test_case "temporary shift" `Quick test_temporary_shift_scalar_amount;
          Alcotest.test_case "multicast" `Quick test_multicast_2d;
          Alcotest.test_case "transfer" `Quick test_transfer_columns;
        ] );
      ( "unstructured",
        [
          Alcotest.test_case "precomp_read" `Quick test_precomp_read;
          Alcotest.test_case "gather" `Quick test_gather_indirection;
          Alcotest.test_case "scatter" `Quick test_scatter_indirection;
          Alcotest.test_case "postcomp affine" `Quick test_postcomp_affine_lhs;
        ] );
      ( "replication",
        [
          Alcotest.test_case "slab multicast" `Quick test_replicated_lhs_multicast;
          Alcotest.test_case "concatenation" `Quick test_replicated_lhs_concat;
        ] );
      ( "control",
        [
          Alcotest.test_case "where/elsewhere" `Quick test_where_elsewhere;
          Alcotest.test_case "forall mask" `Quick test_forall_mask;
          Alcotest.test_case "do/if scalar" `Quick test_do_if_scalar;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "reductions" `Quick test_reduction_intrinsics;
          Alcotest.test_case "cshift" `Quick test_cshift_mover;
          Alcotest.test_case "matmul/transpose" `Quick test_matmul_transpose;
          Alcotest.test_case "dimensional reductions" `Quick test_dimensional_reductions;
        ] );
      ( "procedures",
        [
          Alcotest.test_case "call + redistribute" `Quick test_call_with_redistribution;
          Alcotest.test_case "print" `Quick test_print_output;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "multicast_shift end-to-end" `Quick test_multicast_shift_end_to_end;
          Alcotest.test_case "power method" `Quick test_power_method_intrinsics;
          Alcotest.test_case "aligned cyclic offset" `Quick test_cyclic_alignment_offset;
          Alcotest.test_case "nprocs invariance" `Quick test_same_result_across_nprocs;
          Alcotest.test_case "optimizations preserve results" `Quick test_optimization_equivalence;
          Alcotest.test_case "concurrent compiles on domains" `Quick test_concurrent_compiles;
        ] );
    ]
