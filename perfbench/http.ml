(* A minimal HTTP/1.1 client for loopback: one connection per request
   (the daemon answers with Connection: close), bounded by socket
   timeouts so a wedged daemon fails the run instead of hanging it. *)

type reply = { code : int; headers : string; body : string }

let timeout_s = 20.0

let request ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout_s;
        Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeout_s;
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf
            "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
             application/jsonl\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
            meth path (String.length body) body
        in
        let n = String.length req in
        let sent = ref 0 in
        while !sent < n do
          sent := !sent + Unix.write_substring sock req !sent (n - !sent)
        done;
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 8192 in
        let rec drain () =
          let r = Unix.read sock chunk 0 (Bytes.length chunk) in
          if r > 0 then begin
            Buffer.add_subbytes buf chunk 0 r;
            drain ()
          end
        in
        drain ();
        Buffer.contents buf
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | raw -> (
          match Util.find_after raw "\r\n\r\n" with
          | None -> Error "truncated http response"
          | Some body_at -> (
              let head = String.sub raw 0 body_at in
              let body = String.sub raw body_at (String.length raw - body_at) in
              match String.split_on_char ' ' head with
              | _ :: code :: _ -> (
                  match int_of_string_opt code with
                  | Some code -> Ok { code; headers = head; body }
                  | None -> Error "malformed http status")
              | _ -> Error "malformed http status")))

(* The Retry-After seconds of a 429, if the daemon sent one. *)
let retry_after r =
  match Util.find_after (String.lowercase_ascii r.headers) "retry-after:" with
  | None -> None
  | Some i ->
      let j =
        match String.index_from_opt r.headers i '\r' with
        | Some j -> j
        | None -> String.length r.headers
      in
      float_of_string_opt (String.trim (String.sub r.headers i (j - i)))
