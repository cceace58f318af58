(* Operation accounting and the exact-count self-check.

   Every checked operation counts as attempted; a wrong result counts as
   failed and is reported on stderr, never dropped.  Exact counts (the
   simulated figures, message and kernel counters, polls) are recorded
   under a key: a later value that differs from the first one is a
   failure, because it means the program became nondeterministic. *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 20 then prerr_endline ("perfbench: FAILED: " ^ msg))
    fmt

(* Count one operation whose result check gave [ok]. *)
let op ok what =
  incr attempted;
  if not ok then fail "%s: result differs from the reference" what

let exact_values : (string, string) Hashtbl.t = Hashtbl.create 64

let exact key value =
  match Hashtbl.find_opt exact_values key with
  | None -> Hashtbl.replace exact_values key value
  | Some v when v = value -> ()
  | Some v -> fail "exact count %s changed within the process: %s then %s" key v value

let exact_int key n = exact key (string_of_int n)
let exact_float key x = exact key (Printf.sprintf "%.17g" x)

(* Cross-process half of the self-check.  The first run of a build writes
   its exact counts to [file]; every later run of the same build (same
   executable digest in the file name) compares against them.  Counts do
   not depend on the seed, so runs with different seeds compare too. *)
let persist ~file =
  if Sys.file_exists file then begin
    let saved =
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             match String.split_on_char '\t' line with [ k; v ] -> Some (k, v) | _ -> None)
    in
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt exact_values k with
        | Some mine when mine <> v ->
            fail "exact count %s differs from an earlier run: %s then %s" k v mine
        | _ -> ())
      saved
  end
  else begin
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) exact_values []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v);
    close_out oc;
    Sys.rename tmp file
  end
