(* CRC32-framed durable log records.

   Every record the serving layer persists — event-log lines and the
   one-line shard checkpoints — is wrapped in a self-validating frame:

     CCCCCCCC LEN PAYLOAD

   where CCCCCCCC is the zlib-polynomial CRC32 of PAYLOAD in eight
   lowercase hex digits and LEN is the payload byte length in decimal.
   The frame is still one line of text, so logs stay greppable and the
   legacy unframed format remains readable: a line that does not parse
   as a frame at all is handed back as a raw legacy payload rather than
   dropped.

   Replay distinguishes three failure shapes. A line that is
   frame-shaped but fails its length or CRC check is a corrupt frame:
   it is quarantined (reported to the caller, never delivered) and
   counted exactly. An unterminated final line that fails validation is
   a torn tail — the classic crash-mid-write artifact — and the file is
   truncated back to the last valid frame so the next append starts
   clean. An unterminated final line that still validates lost only its
   newline; the payload is delivered and the terminator repaired in
   place. *)

(* Native ints, not Int32: the loop then allocates nothing. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let frame payload =
  Printf.sprintf "%08x %d %s" (crc32 payload) (String.length payload) payload

type error = Not_a_frame | Corrupt of string

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let parse line =
  let n = String.length line in
  if n < 11 || not (String.for_all is_hex (String.sub line 0 8)) || line.[8] <> ' '
  then Error Not_a_frame
  else
    match String.index_from_opt line 9 ' ' with
    | None -> Error Not_a_frame
    | Some sp -> (
        match
          ( int_of_string_opt (String.sub line 9 (sp - 9)),
            int_of_string_opt ("0x" ^ String.sub line 0 8) )
        with
        | None, _ | _, None -> Error Not_a_frame
        | Some declared_len, Some declared_crc ->
            let payload = String.sub line (sp + 1) (n - sp - 1) in
            if String.length payload <> declared_len then
              Error
                (Corrupt
                   (Printf.sprintf "payload length %d != declared %d"
                      (String.length payload) declared_len))
            else
              let crc = crc32 payload in
              if Int.equal crc declared_crc then Ok payload
              else
                Error
                  (Corrupt
                     (Printf.sprintf "crc %08x != declared %08x" crc
                        declared_crc)))

type stats = { frames : int; legacy : int; corrupt : int; torn : bool }

let empty_stats = { frames = 0; legacy = 0; corrupt = 0; torn = false }

let replay_file ?(truncate_torn = true) ~path ~on_payload ~on_corrupt () =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content ->
      let len = String.length content in
      if len = 0 then Ok empty_stats
      else
        let ends_nl = Char.equal content.[len - 1] '\n' in
        let lines = String.split_on_char '\n' content in
        let lines =
          (* A terminated file splits into a trailing "" artifact. *)
          if ends_nl then
            let keep = List.length lines - 1 in
            List.filteri (fun i _ -> i < keep) lines
          else lines
        in
        let frames = ref 0 and legacy = ref 0 and corrupt = ref 0 in
        let torn = ref false in
        let offset = ref 0 in
        let classify line =
          if String.length line = 0 then ()
          else
            match parse line with
            | Ok payload ->
                incr frames;
                on_payload payload
            | Error Not_a_frame ->
                incr legacy;
                on_payload line
            | Error (Corrupt reason) ->
                incr corrupt;
                on_corrupt ~line ~reason
        in
        let rec go = function
          | [] -> Ok ()
          | [ last ] when not ends_nl -> (
              (* Unterminated final line: either a frame that lost only
                 its newline (repair) or a torn partial write
                 (truncate back to the previous record boundary). *)
              match parse last with
              | Ok payload ->
                  incr frames;
                  on_payload payload;
                  if truncate_torn then (
                    match
                      Out_channel.with_open_gen
                        [ Open_append; Open_binary ] 0o644 path
                        (fun oc -> Out_channel.output_char oc '\n')
                    with
                    | () -> Ok ()
                    | exception Sys_error m -> Error m)
                  else Ok ()
              | Error _ ->
                  torn := true;
                  if truncate_torn then (
                    match Unix.truncate path !offset with
                    | () -> Ok ()
                    | exception Unix.Unix_error (e, _, _) ->
                        Error (Unix.error_message e))
                  else Ok ())
          | line :: rest ->
              classify line;
              offset := !offset + String.length line + 1;
              go rest
        in
        go lines
        |> Result.map (fun () ->
               { frames = !frames; legacy = !legacy; corrupt = !corrupt; torn = !torn })
