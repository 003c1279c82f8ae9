(* Every command line help page renders: [--help=plain] for the dmw
   command group, each of its subcommands and dmw_serve must exit 0
   without a cmdliner error (a malformed doc string only surfaces when
   its page is rendered). *)

let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" name)

(* Exit code and combined stdout/stderr of [exe args]. *)
let run exe args =
  let out = Filename.temp_file "dmw_help" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:out) in
  (code, In_channel.with_open_bin out In_channel.input_all)

let contains s ~sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let check_page exe args =
  let label = String.concat " " (Filename.basename exe :: args) in
  let code, text = run exe args in
  Alcotest.(check int) (label ^ ": exit status") 0 code;
  Alcotest.(check bool)
    (label ^ ": no cmdliner error\n" ^ text)
    false
    (contains text ~sub:"cmdliner error")

(* Subcommand names: the first word of each entry line in the COMMANDS
   section of the group's plain help. *)
let subcommands text =
  let lines = String.split_on_char '\n' text in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.equal l "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | l :: rest when l = "" || l.[0] = ' ' ->
        let entry =
          String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
        in
        take
          (if entry then List.hd (String.split_on_char ' ' (String.trim l)) :: acc
           else acc)
          rest
    | _ -> List.rev acc
  in
  take [] (skip lines)

let test_dmw_pages () =
  let dmw = bin "dmw_cli.exe" in
  check_page dmw [ "--help=plain" ];
  let commands = subcommands (snd (run dmw [ "--help=plain" ])) in
  Alcotest.(check bool) "subcommands listed" true (List.mem "run" commands);
  List.iter (fun c -> check_page dmw [ c; "--help=plain" ]) commands

let test_serve_page () = check_page (bin "dmw_serve.exe") [ "--help=plain" ]

let () =
  Alcotest.run "cli_help"
    [ ("help",
       [ Alcotest.test_case "dmw and every subcommand" `Quick test_dmw_pages;
         Alcotest.test_case "dmw_serve" `Quick test_serve_page ]) ]
