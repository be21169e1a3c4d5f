namespace demo {

int scaled_twice(int value) {
  return value * 2;
}

}  // namespace demo
