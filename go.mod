module xssd

go 1.23
