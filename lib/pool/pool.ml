let workers () = 0
